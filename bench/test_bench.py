"""Tests of the benchmark's own code.  Run with: python3 -m pytest bench -q"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import Request  # noqa: E402


def test_generators_are_deterministic_per_seed():
    for workload in inputs.WORKLOADS:
        assert workloads.build_requests(workload, 7) == workloads.build_requests(workload, 7)
    for workload in ("deep-search", "sweep", "field-queries"):
        assert workloads.build_requests(workload, 7) != workloads.build_requests(workload, 8)


def _real_roots_numerically(coeffs_descending):
    roots = np.roots(coeffs_descending)
    return sum(1 for r in roots if abs(r.imag) < 1e-7 * max(1.0, abs(r)))


@pytest.mark.parametrize("real_roots", [1, 3])
def test_eisenstein_trinomials_are_irreducible_with_intended_signature(real_roots):
    rng = random.Random(real_roots)
    for _ in range(300):
        a, b = inputs.eisenstein_trinomial(rng, real_roots)
        assert a != 0
        assert inputs.eisenstein_prime((b, a, 0, 0, 0, 1)) is not None
        assert _real_roots_numerically([1, 0, 0, 0, a, b]) == real_roots


def test_seeded_quintics_and_fields_are_eisenstein():
    rng = random.Random(0)
    for _ in range(100):
        assert inputs.eisenstein_prime(inputs.eisenstein_quintic(rng)) is not None
    for seed in range(5):
        fq = inputs.field_query_inputs(seed, workloads.library_charpoly)
        for query in fq.rif:
            if query.category == "random":
                assert inputs.eisenstein_prime(query.poly) is not None
                a, b = query.poly[1], query.poly[0]
                g = query.field
                field_real = _real_roots_numerically(list(reversed(g)))
                assert inputs.trinomial_real_roots(a, b) == field_real


def test_big_t_values_leave_int64():
    sweep = inputs.sweep_inputs(3)
    for t, height in sweep.tform[-2:]:
        p, q = abs(t.numerator), t.denominator
        assert height * height * (2500 * q * q + 1760 * p * q) >= 2 ** 61  # the int64 audit in point_search fails


def test_half_box_cells_matches_enumeration():
    for h in range(1, 5):
        rng = range(-h, h + 1)
        count = sum(1 for b in rng for c in rng for d in rng
                    if d > 0 or (d == 0 and c > 0) or (d == 0 and c == 0 and b >= 0))
        assert checks.half_box_cells(h) == count


def test_independent_field_arithmetic():
    t = Fraction(6, 5)
    g = (t, t, 0, 0, 0, 1)
    assert checks.trinomial_of((0, 1, 0, 0, 0), g) == (t, t)  # alpha itself
    assert checks.trinomial_of((0, 1, 1, 0, 0), g) is None
    assert checks.evaluates_to_zero((-18, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0), inputs.K18)
    assert not checks.evaluates_to_zero((-18, 0, 0, 0, 0, 1), (0, 2, 0, 0, 0), inputs.K18)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 21)]) == (50, 10.0)
    assert run.tail([1.0] * 10) is None


SMALL = [
    Request("search", "search.j1", (Fraction(6, 5), 20), 1),
    Request("search", "search.j2", (Fraction(6, 5), 20), 2),
    Request("search", "tform", (Fraction(2 ** 70 + 1, 5), 8)),
    Request("general", "general", (inputs.K18, 2)),
    Request("rif", "rif.hit", (inputs.K18, (-18, 0, 0, 0, 0, 1))),
    Request("rif", "rif.random", (inputs.K18, (10, 6, 0, 0, 0, 1))),
    Request("classify", "classify", (6, 10)),
]


def test_counts_repeat_match_across_jobs_and_under_tracing():
    with run.SpeedProbe() as probe:
        first = run.run_loop(workloads, SMALL, 0, probe)
        second = run.run_loop(workloads, SMALL, 0, probe)
        with Tracer() as tracer:
            traced = run.run_loop(workloads, SMALL, 0, probe, tracer)
    assert first.problems == second.problems == traced.problems == []
    for name, module in list(sys.modules.items()):
        if name.startswith("quintic_trinomials"):
            assert not [k for k, v in vars(module).items() if hasattr(v, "__wrapped__")], name
    assert first.counts == second.counts == traced.counts
    assert first.digest == second.digest == traced.digest
    for name in ("cells", "points", "degenerate"):
        assert first.counts[f"{name}.j1"] == first.counts[f"{name}.j2"]
    layers = layer_metrics(tracer.spans)
    counts = first.counts
    assert layers["curve.cells"] == counts["cells.j1"] + counts["cells.j2"] + counts["cells.tform"]
    assert layers["curve.points_found"] == counts["points.j1"] + counts["points.j2"] + counts["points.tform"]
    assert layers["curve.general_cells"] == counts["general_cells"]
    assert layers["numberfield.has_root_in_field.certified.calls"] == 1
    assert layers["trinomial.galois_type_heuristic.calls"] == 1


def test_checks_flag_wrong_outputs():
    hit = Request("rif", "rif.hit", (inputs.K18, (-18, 0, 0, 0, 0, 1)))
    _, raw = workloads.execute(hit)
    assert workloads.check(hit, raw).problems == []
    wrong = type(raw)("certified", raw.witness * 2, raw.precision_bits, raw.denominator_bound)
    assert workloads.check(hit, wrong).problems
    absent = type(raw)("absent", None, raw.precision_bits, raw.denominator_bound)
    assert workloads.check(hit, absent).problems


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    traced_names = set(layer_metrics([])) | {"cli.import_s", "cli.process_overhead_s", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == traced_names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
