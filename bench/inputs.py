"""Seeded inputs for the benchmark workloads.

Every generator takes the seed and nothing else from the run, so the same
seed always yields the same inputs.  Irreducibility and real-root counts of
the generated trinomials are decided here with integer criteria of the
benchmark's own (Eisenstein's criterion and the sign of the discriminant),
never by the library under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

T_EXCLUDED = Fraction(-3125, 256)  # x^5 + tx + t has a repeated root
ANCHOR_T = Fraction(6, 5)
PAPER_T = (ANCHOR_T, Fraction(-3125, 20736))  # the curves `verify paper` searches
DEEP_HEIGHT = 200

# The paper's table for t = 6/5 at height 200: point -> (class kind, value).
ANCHOR_POINTS = {
    (0, 1, 0, 0): ("generic", Fraction(6, 5)),
    (168, -45, -95, -55): ("pure", Fraction(18)),
    (36, -150, 120, 35): ("pure", Fraction(432)),
    (88, 70, 75, -60): ("pure", Fraction(324)),
    (24, -100, 80, -195): ("pure", Fraction(24)),
}

# The two fields of the paper (ascending coefficients of the defining
# polynomial) and the trinomials (a, b) certified to have a root there.
K18 = (-18, 0, 0, 0, 0, 1)
K_REM = (105, 75, 0, 0, 0, 1)
PAPER_CERTIFICATES = {
    K18: ((0, -18), (0, -324), (0, -24), (0, -432), (750, 3750)),
    K_REM: ((75, 105), (-75, 465), (-1125, 3825), (-2025, 65205),
            (2025, 10665), (-10125, 83025), (28125, -39375),
            (-3410625, 86685375)),
}

WORKLOADS = ("deep-search", "sweep", "field-queries", "paper")
EISENSTEIN_PRIMES = (2, 3, 5, 7)

# The paper workload's fixed input: `quintrin --jobs 2 verify paper`.
PAPER_JOBS = 2
PAPER_ARGS = ("--jobs", str(PAPER_JOBS), "verify", "paper")

# Sweep shape: one small-height t per t-form height, two t values too large
# for the int64 search path, and general fields searched at one height.
# The search cost of a small t is heavy-tailed in t, so many curves keep
# the per-seed total steady.
SWEEP_TFORM_HEIGHTS = tuple(range(30, 61, 3))
SWEEP_BIG_HEIGHTS = (40, 50)
SWEEP_GENERAL_HEIGHT = 5
SWEEP_SEEDED_FIELDS = 4
CHARPOLYS_PER_FIELD = 2  # known-root queries per field, besides the paper's certificates
RANDOMS_PER_FIELD = 3


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def trinomial_real_roots(a: int, b: int) -> int:
    """Real roots of a separable x^5 + ax + b, from signs alone.

    f' = 5x^4 + a has no real zero when a >= 0, so f is monotonic.  For
    a < 0 there are one or three real roots, and the discriminant
    256a^5 + 3125b^4 is negative exactly when one conjugate pair is
    complex, i.e. when there are three.
    """
    if a >= 0:
        return 1
    disc = 256 * a ** 5 + 3125 * b ** 4
    if disc == 0:
        raise ValueError("repeated root")
    return 3 if disc < 0 else 1


def eisenstein_prime(coeffs) -> Optional[int]:
    """A prime making the monic integer polynomial (ascending) Eisenstein, or None."""
    *low, lead = coeffs
    if lead != 1:
        return None
    for p in EISENSTEIN_PRIMES:
        if all(c % p == 0 for c in low) and low[0] % (p * p) != 0:
            return p
    return None


def eisenstein_trinomial(rng: random.Random, real_roots: int) -> Tuple[int, int]:
    """(a, b) with x^5 + ax + b Eisenstein (hence irreducible), a != 0, and the given real-root count."""
    while True:
        p = rng.choice(EISENSTEIN_PRIMES)
        a = p * rng.randint(-20, 20)
        u = rng.randint(-20, 20)
        if a == 0 or u % p == 0:
            continue
        b = p * u
        if trinomial_real_roots(a, b) == real_roots:
            return a, b


def eisenstein_quintic(rng: random.Random) -> Tuple[int, ...]:
    """A dense monic Eisenstein quintic with small coefficients, ascending.

    Every coefficient is nonzero: the symbolic curve construction costs
    the most for dense fields, and a fixed support keeps that cost alike
    across seeds.
    """
    p = rng.choice(EISENSTEIN_PRIMES)
    while True:
        u = rng.randint(-5, 5)
        if u % p:
            break
    middle = [p * rng.choice((-2, -1, 1, 2)) for _ in range(4)]
    return (p * u, *middle, 1)


def small_t(rng: random.Random, taken, min_height: int = 0) -> Fraction:
    """t = p/q with min_height <= max(|p|, q) and |p|, q <= 50, avoiding 0, -3125/256 and values taken."""
    while True:
        t = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if (t != 0 and t != T_EXCLUDED and t not in taken
                and max(abs(t.numerator), t.denominator) >= min_height):
            return t


# ---------------------------------------------------------------------------
# per-workload inputs
# ---------------------------------------------------------------------------

def deep_search_inputs(seed: int) -> List[Tuple[Fraction, int]]:
    """(t, H) searches: the paper's two curves plus seeded t with 10 <= max(|p|, q) <= 50.

    At height 200 the search cost of t grows steeply as its own height
    falls (t = 2/5 costs four times t = 19/14), because more discriminants
    are squares.  That regime is measured every run by t = 6/5; seeded t
    of height 10 to 50, one beside the fixed curves, keep the per-seed
    total steady.
    """
    ts = [*PAPER_T, small_t(_rng("deep-search", seed), PAPER_T, min_height=10)]
    return [(t, DEEP_HEIGHT) for t in ts]


def big_t(rng: random.Random, big_numerator: bool) -> Fraction:
    """t whose search bound overflows int64, so the big-int path runs."""
    while True:
        if big_numerator:
            t = Fraction(rng.choice((-1, 1)) * rng.randrange(2 ** 64, 2 ** 70), rng.randint(2, 50))
        else:
            t = Fraction(rng.randint(-50, 50), rng.randrange(2 ** 40, 2 ** 48))
        if t != 0:
            return t


@dataclass(frozen=True)
class SweepInputs:
    tform: Tuple[Tuple[Fraction, int], ...]          # (t, H)
    general: Tuple[Tuple[Tuple[int, ...], int], ...]  # (g ascending, H)


def sweep_inputs(seed: int) -> SweepInputs:
    rng = _rng("sweep", seed)
    ts: List[Fraction] = []
    tform = []
    for h in SWEEP_TFORM_HEIGHTS:
        t = small_t(rng, ts)
        ts.append(t)
        tform.append((t, h))
    for h, big_num in zip(SWEEP_BIG_HEIGHTS, (True, False)):
        tform.append((big_t(rng, big_num), h))
    fields = [K18, K_REM]
    while len(fields) < 2 + SWEEP_SEEDED_FIELDS:
        g = eisenstein_quintic(rng)
        if g not in fields:
            fields.append(g)
    return SweepInputs(tuple(tform), tuple((g, SWEEP_GENERAL_HEIGHT) for g in fields))


@dataclass(frozen=True)
class FieldQuery:
    field: Tuple[int, ...]   # defining polynomial, ascending
    poly: Tuple[int, ...]    # queried polynomial, ascending, monic quintic
    category: str            # "hit" (a root is known) or "random"


@dataclass(frozen=True)
class FieldQueryInputs:
    rif: Tuple[FieldQuery, ...]
    classify: Tuple[Tuple[int, int], ...]  # (a, b) of every query trinomial


def field_query_inputs(seed: int, charpoly) -> FieldQueryInputs:
    """Known-root and random root-in-field queries over the paper fields and two seeded fields.

    `charpoly(g, coords)` returns the ascending integer characteristic
    polynomial of the element with the given coordinates in Q[x]/(g); the
    caller supplies the library's, so its cost lands in set-up.  The seeded
    fields are Eisenstein trinomials with one and three real roots.
    """
    rng = _rng("field-queries", seed)
    seeded = []
    for real_roots in (1, 3):
        a, b = eisenstein_trinomial(rng, real_roots)
        seeded.append(((b, a, 0, 0, 0, 1), real_roots))
    fields = [(K18, 1), (K_REM, 1)] + seeded
    rif: List[FieldQuery] = []
    trinomials: List[Tuple[int, int]] = []
    for g, _ in fields:
        for a, b in PAPER_CERTIFICATES.get(g, ()):
            rif.append(FieldQuery(g, (b, a, 0, 0, 0, 1), "hit"))
            trinomials.append((a, b))
    for g, _ in fields:
        for _ in range(CHARPOLYS_PER_FIELD):
            while True:
                coords = tuple(rng.randint(-2, 2) for _ in range(5))
                if any(coords[1:]):
                    break
            rif.append(FieldQuery(g, tuple(charpoly(g, coords)), "hit"))
    for g, real_roots in fields:
        for _ in range(RANDOMS_PER_FIELD):
            a, b = eisenstein_trinomial(rng, real_roots)
            rif.append(FieldQuery(g, (b, a, 0, 0, 0, 1), "random"))
            trinomials.append((a, b))
    return FieldQueryInputs(tuple(rif), tuple(trinomials))
