"""Command line for the quintic trinomial toolkit.

All rational values cross the boundary as exact "p/q" strings, never
floating point; polynomials are ascending-degree coefficient lists.
Search output streams one JSON object per line; everything else emits a
single JSON document.  Exit codes: 0 success, 1 a `verify` criterion
failed, 2 malformed input, 4 an internal error (a broken invariant of the
exact arithmetic, or a worker process that died), 141 the reader closed
stdout early.  Root-in-field answers are exact: a verified root or a
proof of absence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .qpoly import (UniPoly, discriminant, format_rational, parse_rational,
                    poly_to_strings)
from .factor import factor_over_Q
from .numberfield import NumberField, has_root_in_field
from .trinomial import (Trinomial, equiv_class, trinomial_disc,
                        galois_type_heuristic, weber_family, dihedral_family,
                        sw2_family, two_trinomial_family)
from .curve import (CurvePoint, curve_from_t, curve_from_field, point_search,
                    point_to_trinomial, field_L_polynomial, DegeneratePoint)
from .surface import (recover_t, t_parts, rational_curve, consistency_with_curve,
                      CURVE_NAMES)
from .elliptic import (WeierstrassCurve, j_invariant, quadratic_twist_factor)
from .report import run_acceptance

EXIT_OK = 0
EXIT_USAGE = 2
# a broken internal invariant (ArithmeticError) or a worker process that died
# (BrokenProcessPool), never a failed check
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout was closed before the output was written

ENV_JOBS = "QUINTRIN_JOBS"

# the prime sieve takes one byte per integer below the bound; the limit also
# keeps every prime inside the int64 lanes of the batched mod-p kernel
MAX_PRIME_BOUND = 1 << 20


@dataclass
class RunConfig:
    height_bound: int = 200
    prime_bound: int = 500
    jobs: int = 0  # 0 = hardware-derived
    output: Optional[str] = None

    def resolved_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        return max(1, os.cpu_count() or 1)

    def validate(self):
        for name in ("height_bound", "prime_bound"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.prime_bound > MAX_PRIME_BOUND:
            raise ValueError(f"prime_bound must be at most {MAX_PRIME_BOUND}")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means the CPU count)")


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, val in _load_config_file(args.config).items():
            if key in ("height_bound", "prime_bound", "jobs"):
                setattr(cfg, key, int(val))
            elif key == "output":
                cfg.output = val
            else:
                raise ValueError(f"unknown config key {key!r}")
    if os.environ.get(ENV_JOBS):
        cfg.jobs = int(os.environ[ENV_JOBS])
    for attr, arg in (("height_bound", "height"), ("prime_bound", "prime_bound"),
                      ("jobs", "jobs"), ("output", "output")):
        val = getattr(args, arg, None)
        if val is not None:
            setattr(cfg, attr, val)
    cfg.validate()
    return cfg


def _parse_poly(text: str) -> UniPoly:
    return UniPoly([parse_rational(part) for part in text.split(",")])


def _parse_tuple(text: str, n: int):
    parts = [parse_rational(part) for part in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated rationals, got {len(parts)}")
    return parts


def _form_json(form):
    return {"variables": list(form.vars),
            "terms": [[format_rational(c), list(e)] for e, c in form.sorted_terms()]}


def _emit(document, out) -> None:
    out.write(json.dumps(document, indent=2))
    out.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_classify(args, cfg, out) -> int:
    lead = parse_rational(args.lead) if args.lead else Fraction(1)
    tri = Trinomial.from_coefficients(lead, parse_rational(args.a), parse_rational(args.b))
    poly = tri.as_unipoly()
    irreducible = factor_over_Q(poly).is_irreducible
    doc = {
        "trinomial": tri.to_json(),
        "class": equiv_class(tri).to_json(),
        "discriminant": format_rational(trinomial_disc(tri)),
        "irreducible": irreducible,
    }
    if irreducible:
        group, evidence = galois_type_heuristic(tri, cfg.prime_bound)
        doc["galois_heuristic"] = {"group": group, **evidence.to_json()}
    _emit(doc, out)
    return EXIT_OK


def _cmd_curve(args, cfg, out) -> int:
    if (args.t is None) == (args.g is None):
        raise ValueError("give exactly one of --t or --g")
    if args.eliminate is not None and args.g is None:
        raise ValueError("--eliminate needs --g")
    if args.t is not None:
        t = parse_rational(args.t)
        curve = curve_from_t(t)
        doc = {
            "t": format_rational(t),
            "field": poly_to_strings(curve.defining_poly),
            "elimination": {"variable": "e",
                            "coefficient_of_a": format_rational(curve.e_coordinate(1))},
            "quadric": _form_json(curve.quadric),
            "cubic": _form_json(curve.cubic),
            "field_L": poly_to_strings(field_L_polynomial(t)),
        }
    else:
        g = _parse_poly(args.g)
        curve = curve_from_field(g, eliminate=args.eliminate)
        doc = {
            "field": poly_to_strings(g),
            "eliminated": curve.eliminated,
            "elimination_expr": _form_json(curve.elimination_expr),
            "linear": _form_json(curve.linear),
            "quadric": _form_json(curve.quadric),
            "cubic": _form_json(curve.cubic),
        }
    _emit(doc, out)
    return EXIT_OK


def _cmd_search(args, cfg, out) -> int:
    t = parse_rational(args.t)
    curve = curve_from_t(t)
    result = point_search(curve, cfg.height_bound, jobs=cfg.resolved_jobs())
    for pt in result.points:
        try:
            image = point_to_trinomial(curve, pt)
        except DegeneratePoint:
            out.write(json.dumps({"point": pt.to_json(), "degenerate": True}))
            out.write("\n")
            continue
        record = {
            "point": pt.to_json(),
            "trinomial": image.trinomial.to_json(),
            "class": image.cls.to_json(),
            "rho": [format_rational(image.rho[0]), format_rational(image.rho[1])],
        }
        out.write(json.dumps(record))
        out.write("\n")
    for pt in result.degenerate:
        out.write(json.dumps({"point": pt.to_json(), "degenerate": True}))
        out.write("\n")
    return EXIT_OK


def _cmd_root_in_field(args, cfg, out) -> int:
    g = _parse_poly(args.g)
    f = _parse_poly(args.f)
    field = NumberField(g)
    res = has_root_in_field(f, field)
    doc = {
        "field": poly_to_strings(g),
        "polynomial": poly_to_strings(f),
        "status": res.status,
        "detail": res.detail,
    }
    if res.witness is not None:
        doc["root"] = [format_rational(c) for c in res.witness.coords]
    _emit(doc, out)
    return EXIT_OK


def _cmd_family(args, cfg, out) -> int:
    param = parse_rational(args.param)
    if args.family == "weber":
        tri = weber_family(param)
        doc = {"family": "weber", "param": format_rational(param),
               "trinomial": tri.to_json(), "class": equiv_class(tri).to_json()}
    elif args.family == "dihedral":
        tri = dihedral_family(param)
        doc = {"family": "dihedral", "param": format_rational(param),
               "u": format_rational(param - 1 / param),
               "trinomial": tri.to_json(), "class": equiv_class(tri).to_json()}
    elif args.family == "sw2":
        m, tri = sw2_family(param)
        doc = {"family": "sw2", "param": format_rational(param),
               "radicand": format_rational(m),
               "trinomial": tri.to_json(), "class": equiv_class(tri).to_json()}
    else:
        pair = two_trinomial_family(param)
        doc = {
            "family": "pair", "param": format_rational(param),
            "f": pair.f.to_json(),
            "beta": [format_rational(c) for c in pair.beta_coords],
            "h": pair.h.to_json(),
            "f_irreducible": pair.f_irreducible,
            "verified": pair.verified,
        }
    _emit(doc, out)
    return EXIT_OK


def _cmd_surface(args, cfg, out) -> int:
    if args.surface_cmd == "check":
        values = _parse_tuple(args.point, 4)
        pt = CurvePoint.from_rationals(values)
    else:
        pt = rational_curve(args.name, parse_rational(args.s))
    try:  # recover_t checks membership itself: one evaluation of the sextic
        t = recover_t(pt)
        member = True
    except ValueError:  # off the surface
        member = False
    doc = {"point": pt.to_json(), "on_surface": member}
    if member:
        if t is None:
            doc["t"] = "infinity" if t_parts(pt)[0] else "undetermined"
        else:
            doc["t"] = format_rational(t)
        if consistency_with_curve(pt, t) is not None:
            doc["on_curve"] = True
    _emit(doc, out)
    return EXIT_OK


def _parse_curve(text: str) -> WeierstrassCurve:
    return WeierstrassCurve(*_parse_tuple(text, 5))


def _cmd_elliptic(args, cfg, out) -> int:
    if args.elliptic_cmd == "info":
        curve = _parse_curve(args.curve)
        doc = {
            "curve": curve.to_json(),
            "c4": format_rational(curve.c4),
            "c6": format_rational(curve.c6),
            "discriminant": format_rational(curve.discriminant),
            "j": format_rational(j_invariant(curve)),
        }
    else:
        e1 = _parse_curve(args.curve1)
        e2 = _parse_curve(args.curve2)
        twist = quadratic_twist_factor(e1, e2)
        doc = {"curve1": e1.to_json(), "curve2": e2.to_json(),
               "twists": twist is not None}
        if twist is not None:
            doc["twist_factor"] = str(twist)
    _emit(doc, out)
    return EXIT_OK


def _cmd_verify(args, cfg, out) -> int:
    report = run_acceptance(jobs=cfg.resolved_jobs(), prime_bound=cfg.prime_bound)
    out.write(report)
    return EXIT_OK if "FAIL" not in report else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quintrin",
        description="exact search and verification for quintic trinomials x^5+ax+b")
    parser.add_argument("--config", help="key = value file overriding defaults")
    parser.add_argument("--prime-bound", type=int, dest="prime_bound")
    parser.add_argument("--jobs", type=int, help="task parallelism (default: cpu count)")
    parser.add_argument("--output", help="write to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="equivalence class, discriminant, Galois evidence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--lead", help="optional leading coefficient, normalized away")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("curve", help="the classifying curve of a quintic field")
    p.add_argument("--t", help="parameter of x^5 + tx + t")
    p.add_argument("--g", help="monic quintic, ascending coefficients p/q,...")
    p.add_argument("--eliminate", choices=list("abcde"),
                   help="variable eliminated by the trace condition (with --g)")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("search", help="rational point search up to a height bound")
    p.add_argument("--t", required=True)
    p.add_argument("--height", type=int)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("root-in-field", help="a certified root or a proof of absence, degree <= 5")
    p.add_argument("--g", required=True, help="field polynomial, ascending coefficients")
    p.add_argument("--f", required=True, help="query polynomial, ascending coefficients")
    p.set_defaults(func=_cmd_root_in_field)

    p = sub.add_parser("family", help="parametrized trinomial families")
    p.add_argument("family", choices=["weber", "dihedral", "sw2", "pair"])
    p.add_argument("--param", required=True)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("surface", help="the sextic surface of extra-trinomial fields")
    surface_sub = p.add_subparsers(dest="surface_cmd", required=True)
    pc = surface_sub.add_parser("check", help="membership and t recovery for a point")
    pc.add_argument("--point", required=True, help="a,b,c,d as rationals")
    pc.set_defaults(func=_cmd_surface)
    pv = surface_sub.add_parser("curve", help="evaluate one of the rational curves")
    pv.add_argument("--name", required=True, choices=list(CURVE_NAMES))
    pv.add_argument("--s", required=True)
    pv.set_defaults(func=_cmd_surface)

    p = sub.add_parser("elliptic", help="Weierstrass invariants and twist identification")
    esub = p.add_subparsers(dest="elliptic_cmd", required=True)
    pi = esub.add_parser("info", help="invariants of a curve a1,a2,a3,a4,a6")
    pi.add_argument("--curve", required=True)
    pi.set_defaults(func=_cmd_elliptic)
    pt = esub.add_parser("twist", help="quadratic twist class between two curves")
    pt.add_argument("--curve1", required=True)
    pt.add_argument("--curve2", required=True)
    pt.set_defaults(func=_cmd_elliptic)

    p = sub.add_parser("verify", help="run the bundled reproduction suite")
    p.add_argument("what", choices=["paper"])
    p.set_defaults(func=_cmd_verify)

    return parser


_VALUE_OPTIONS = {"--g", "--f", "--t", "--a", "--b", "--s", "--param", "--lead",
                  "--point", "--curve", "--curve1", "--curve2"}


def _merge_option_values(argv):
    """Join value-taking options with their argument so leading '-' survives."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTIONS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_option_values(list(argv)))
    try:
        cfg = build_config(args)
        out = open(cfg.output, "w", encoding="utf-8") if cfg.output else sys.stdout
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.func(args, cfg, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`quintrin search ... | head`): point stdout at
        # the null device so that the flush at interpreter exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, BrokenProcessPool) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
