"""The bundled reproduction suite behind `quintrin verify paper`.

Each criterion is a deterministic exact computation; the rendered
report is byte-identical across runs and parallelism degrees (timings
are enforced against their budgets but never printed).  The final
criterion recomputes the entire suite a second time and compares the
rendered bytes.

One computation of the suite is nine independent tasks: criteria 1
through 8, and the extra point search of criterion 9 (t = -3125/20736
at height 100).  `run_acceptance` computes the suite twice, so it has
18 tasks.  With one worker (jobs = 1, or a single CPU) they run in this
process, in that order.  Otherwise they go through one process pool of
min(jobs, tasks, CPUs) workers, opened and closed inside the call; the
searches in those tasks run serially, so no pool is ever nested.  The
parent puts the results back in criterion order and computes criterion
9 from the criterion-2 search and the extra search.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import List

from .qpoly import UniPoly, discriminant, format_rational
from .numberfield import NumberField, has_root_in_field
from .trinomial import (Trinomial, equiv_class, trinomial_disc, weber_family,
                        dihedral_family, two_trinomial_family, EquivClass,
                        galois_type_heuristic)
from .curve import (curve_from_t, point_search, point_to_trinomial, CurvePoint, T_EXCLUDED,
                    worker_count)
from .numberfield import charpoly_mod
from .surface import (on_surface, recover_t, rational_curve,
                      line_point, SURFACE_FORM, eliminate_t_from_curve_forms,
                      LINE_NAMES, CURVE_NAMES, LINE_T_VALUES)
from .elliptic import E0, E_TWIST_MINUS10, j_invariant, quadratic_twist_factor

_SEED = 0x7A5C0


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _c1_equivalence_parameter() -> CriterionResult:
    start = time.monotonic()
    cls = equiv_class(Trinomial(-5, 12))
    expected = EquivClass("generic", Fraction(-3125, 20736))
    elapsed_ok = (time.monotonic() - start) < 1.0
    return CriterionResult(
        1, "equivalence parameter of x^5 - 5x + 12",
        cls == expected and elapsed_ok,
        f"class {cls}")


_EXPECTED_POINTS = {
    (0, 1, 0, 0): EquivClass("generic", Fraction(6, 5)),
    (168, -45, -95, -55): EquivClass("pure", Fraction(18)),
    (36, -150, 120, 35): EquivClass("pure", Fraction(432)),
    (88, 70, 75, -60): EquivClass("pure", Fraction(324)),
    (24, -100, 80, -195): EquivClass("pure", Fraction(24)),
}


def _c2_point_recovery():
    start = time.monotonic()
    curve = curve_from_t(Fraction(6, 5))
    result = point_search(curve, 200)
    elapsed_ok = (time.monotonic() - start) < 600.0
    found = {}
    for pt in result.points:
        found[pt.coords] = point_to_trinomial(curve, pt).cls
    ok = found == _EXPECTED_POINTS and elapsed_ok
    detail = f"{len(result.points)} points at height 200: " + ", ".join(
        str(CurvePoint(c)) for c in sorted(found))
    return CriterionResult(2, "five rational points on the t = 6/5 curve", ok, detail), result, curve


def _c3_root_certificates() -> CriterionResult:
    start = time.monotonic()
    k18 = NumberField(UniPoly([-18, 0, 0, 0, 0, 1]))
    five = [(0, -18), (0, -324), (0, -24), (0, -432), (750, 3750)]
    k_rem = NumberField(UniPoly([105, 75, 0, 0, 0, 1]))
    eight = [(75, 105), (-75, 465), (-1125, 3825), (-2025, 65205),
             (2025, 10665), (-10125, 83025), (28125, -39375),
             (-3410625, 86685375)]
    certified = 0
    total = 0
    for field, coeffs in ((k18, five), (k_rem, eight)):
        for a, b in coeffs:
            total += 1
            res = has_root_in_field(UniPoly([b, a, 0, 0, 0, 1]), field)
            if res.certified:
                beta = res.witness
                value = beta ** 5 + beta * Fraction(a) + Fraction(b)
                if value.is_zero:
                    certified += 1
    elapsed_ok = (time.monotonic() - start) < 300.0
    return CriterionResult(
        3, "root certificates for the 5 + 8 known trinomials",
        certified == total == 13 and elapsed_ok,
        f"{certified}/{total} certificates re-verified exactly")


def _c4_pair_identity() -> CriterionResult:
    rng = random.Random(_SEED)
    params = [Fraction(2)]
    while len(params) < 26:
        cand = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        if cand not in (0, 1, -8) and cand not in params:
            params.append(cand)
    checked = 0
    a2_ok = False
    for a in params:
        pair = two_trinomial_family(a)
        if not pair.verified:
            break
        checked += 1
        if a == 2:
            a2_ok = (pair.f.as_unipoly() == UniPoly([-4, -10, 0, 0, 0, 40])
                     and pair.h.as_unipoly() == UniPoly([-394, 145, 0, 0, 0, 20]))
    return CriterionResult(
        4, "two-trinomial family identity h(beta) = 0",
        checked == 26 and a2_ok,
        f"{checked}/26 parameters verified exactly (including a = 2)")


def _c5_discriminant_form() -> CriterionResult:
    rng = random.Random(_SEED + 1)
    agree = 0
    for _ in range(200):
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        b = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        f = Trinomial(a, b)
        if trinomial_disc(f) == discriminant(f.as_unipoly()):
            agree += 1
    vanish = trinomial_disc(Trinomial(T_EXCLUDED, T_EXCLUDED)) == 0
    return CriterionResult(
        5, "discriminant closed form 256a^5 + 3125b^4",
        agree == 200 and vanish,
        f"{agree}/200 random agreements; vanishes at the repeated-root locus")


_F20_TYPES = {(1, 1, 1, 1, 1), (1, 2, 2), (1, 4), (5,)}
_D10_TYPES = {(1, 1, 1, 1, 1), (1, 2, 2), (5,)}


def _c6_family_cycle_types(prime_bound: int) -> CriterionResult:
    rng = random.Random(_SEED + 2)
    passed = []
    for family, allowed, square_disc in ((weber_family, _F20_TYPES, False),
                                         (dihedral_family, _D10_TYPES, True)):
        ok = seen = 0
        while seen < 10:
            u = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
            try:
                _, ev = galois_type_heuristic(family(u), prime_bound)
            except ValueError:
                continue  # a reducible sample, or the dihedral family's excluded s = 0
            seen += 1
            if set(ev.cycle_types) <= allowed and (ev.disc_is_square or not square_disc):
                ok += 1
        passed.append(ok)
    weber_ok, dihedral_ok = passed
    return CriterionResult(
        6, f"family factorization cycle types below {prime_bound}",
        weber_ok == 10 and dihedral_ok == 10,
        f"weber {weber_ok}/10 within F20 types; dihedral {dihedral_ok}/10 within D10 types with square disc")


def _c7_surface() -> CriterionResult:
    samples_ok = True
    for name in CURVE_NAMES:
        for k in range(1, 51):
            if not on_surface(rational_curve(name, Fraction(k, 3))):
                samples_ok = False
    line_t_ok = True
    for name in LINE_NAMES:
        for k in range(1, 51):
            pt = line_point(name, Fraction(k), Fraction(k + 1))
            if name not in LINE_T_VALUES:
                if not on_surface(pt):
                    samples_ok = False
                continue
            try:  # recover_t checks membership itself
                if recover_t(pt) != LINE_T_VALUES[name]:
                    line_t_ok = False
            except ValueError:  # off the surface
                samples_ok = False
    ratio = eliminate_t_from_curve_forms().proportionality(SURFACE_FORM)
    return CriterionResult(
        7, "surface form on lines and curves; t recovery; elimination",
        samples_ok and line_t_ok and ratio is not None,
        f"50 samples per locus exact; elimination unit {format_rational(ratio) if ratio else 'none'}")


def _c8_elliptic() -> CriterionResult:
    j_ok = j_invariant(E0) == Fraction(-25, 2)
    twist = quadratic_twist_factor(E0, E_TWIST_MINUS10)
    return CriterionResult(
        8, "j invariant -25/2 and the -10 quadratic twist",
        j_ok and twist == -10,
        f"j = {format_rational(j_invariant(E0))}, twist class {twist}")


def _c9_extra_search():
    curve = curve_from_t(Fraction(-3125, 20736))
    return curve, point_search(curve, 100)


def _c9_power_sum_conditions(search_results) -> CriterionResult:
    checked = 0
    ok = True
    for curve, result in search_results:
        for pt in result.points:
            cp = charpoly_mod(curve.defining_poly, curve.beta_coords(pt))
            checked += 1
            if any(cp[i] != 0 for i in (2, 3, 4)):
                ok = False
    return CriterionResult(
        9, "vanishing x^4, x^3, x^2 coefficients at every search point",
        ok and checked > 0,
        f"{checked} points checked exactly")


def _tasks(prime_bound: int) -> list:
    """The nine tasks of one computation of the suite, in criterion order."""
    return [_c1_equivalence_parameter, _c2_point_recovery, _c3_root_certificates,
            _c4_pair_identity, _c5_discriminant_form,
            partial(_c6_family_cycle_types, prime_bound), _c7_surface, _c8_elliptic,
            _c9_extra_search]


def _call(task):
    return task()


def _assemble(outputs) -> List[CriterionResult]:
    """Criteria 1 through 9 from the outputs of one computation's tasks."""
    c1, (c2, search65, curve65), c3, c4, c5, c6, c7, c8, (other_curve, other) = outputs
    c9 = _c9_power_sum_conditions([(curve65, search65), (other_curve, other)])
    return [c1, c2, c3, c4, c5, c6, c7, c8, c9]


def _run_suites(count: int, jobs: int, prime_bound: int) -> List[List[CriterionResult]]:
    """`count` computations of criteria 1 through 9, their tasks in one pool at jobs >= 2."""
    tasks = _tasks(prime_bound)
    workers = worker_count(jobs, count * len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_call, tasks * count))
    else:
        outputs = [task() for task in tasks * count]
    return [_assemble(outputs[i:i + len(tasks)]) for i in range(0, len(outputs), len(tasks))]


def run_criteria(jobs: int = 1, prime_bound: int = 500) -> List[CriterionResult]:
    """Criteria 1 through 9, in order."""
    return _run_suites(1, jobs, prime_bound)[0]


def render_report(results: List[CriterionResult]) -> str:
    lines = ["criterion  status  description"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.index:>9}  {status:<6}  {r.name}: {r.detail}")
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"


def run_acceptance(jobs: int = 1, prime_bound: int = 500) -> str:
    """All ten criteria; the tenth recomputes everything and compares bytes."""
    first, second = _run_suites(2, jobs, prime_bound)
    identical = render_report(first) == render_report(second)
    tenth = CriterionResult(
        10, "byte-identical report on recomputation",
        identical, "full suite recomputed and compared")
    return render_report(first + [tenth])
