"""Command-line surface: JSON shapes, exit codes, determinism."""

import difflib
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quintic_trinomials import cli, curve, factor, report
from quintic_trinomials.cli import main, EXIT_OK, EXIT_USAGE, EXIT_INTERNAL, EXIT_BROKEN_PIPE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_dihedral_example(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a", "-5", "--b", "12")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["class"] == {"kind": "generic", "value": "-3125/20736"}
    assert doc["discriminant"] == "64000000"
    assert doc["irreducible"] is True
    assert doc["galois_heuristic"]["group"] == "D10"


def test_classify_with_leading_coefficient(capsys):
    code, out, _ = run_cli(capsys, "classify", "--lead", "40", "--a", "-10", "--b", "-4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["trinomial"] == {"a": "-1/4", "b": "-1/10"}


# classify of fractional trinomials whose monic integral rescaling x -> x/d
# takes a d other than the leading coefficient of the primitive part (2
# against 4, 4096 against 8192); the evidence was recorded before the two
# rescaling rules were merged
_S5_TYPES = [[1, 1, 1, 2], [1, 1, 3], [1, 2, 2], [1, 4], [2, 3], [5]]


@pytest.mark.parametrize("a, b, doc", [
    ("1/2", "1/4", {"trinomial": {"a": "1/2", "b": "1/4"},
                    "class": {"kind": "generic", "value": "8"},
                    "discriminant": "5173/256", "irreducible": True,
                    "galois_heuristic": {"group": "S5", "disc_is_square": False,
                                         "cycle_types": _S5_TYPES, "primes_used": 93}}),
    ("-5/4096", "3/8192", {"trinomial": {"a": "-5/4096", "b": "3/8192"},
                           "class": {"kind": "generic", "value": "-3125/20736"},
                           "discriminant": "15625/281474976710656", "irreducible": True,
                           "galois_heuristic": {"group": "D10", "disc_is_square": True,
                                                "cycle_types": [[1, 1, 1, 1, 1], [1, 2, 2], [5]],
                                                "primes_used": 93}}),
])
def test_classify_fractional_trinomial_is_pinned(capsys, a, b, doc):
    code, out, _ = run_cli(capsys, "classify", "--a", a, "--b", b)
    assert code == EXIT_OK
    assert json.loads(out) == doc


def test_classify_malformed_rational_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--a", "1.5", "--b", "2")
    assert code == EXIT_USAGE
    assert "malformed" in err


def test_classify_pure_trinomial(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a", "0", "--b", "-18")
    doc = json.loads(out)
    assert doc["class"] == {"kind": "pure", "value": "18"}
    assert doc["galois_heuristic"]["group"] == "F20"


def test_curve_t_form(capsys):
    code, out, _ = run_cli(capsys, "curve", "--t", "6/5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["field"] == ["6/5", "6/5", "0", "0", "0", "1"]
    assert doc["elimination"] == {"variable": "e", "coefficient_of_a": "25/24"}
    assert doc["quadric"] == {"variables": ["a", "b", "c", "d"], "terms": [
        ["-5", [2, 0, 0, 0]], ["50", [1, 1, 0, 0]], ["192/5", [0, 1, 0, 1]],
        ["96/5", [0, 0, 2, 0]], ["48", [0, 0, 1, 1]]]}
    assert doc["cubic"] == {"variables": ["a", "b", "c", "d"], "terms": [
        ["-10", [3, 0, 0, 0]], ["25", [2, 1, 0, 0]], ["-125", [2, 0, 1, 0]],
        ["-192", [1, 0, 1, 1]], ["-120", [1, 0, 0, 2]], ["384/5", [0, 2, 1, 0]],
        ["96", [0, 2, 0, 1]], ["96", [0, 1, 2, 0]], ["-2304/25", [0, 0, 1, 2]],
        ["-1728/25", [0, 0, 0, 3]]]}
    assert doc["field_L"][-1] == "1" and len(doc["field_L"]) == 11


def test_curve_general_field(capsys):
    code, out, _ = run_cli(capsys, "curve", "--g", "-18,0,0,0,0,1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["eliminated"] == "a"
    code2, out2, _ = run_cli(capsys, "curve", "--g", "2,2,0,0,0,1")
    assert json.loads(out2)["eliminated"] == "e"


def test_general_field_curves_match_golden_output(capsys):
    # the commands and the digest of the CI step that pins `curve --g`, read
    # from the workflow, so that the step, this test and the file agree
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml").read_text()
    step = workflow.split("- name: general-field curve output")[1].split("- name:")[0]
    commands = re.findall(r"^\s*run (curve .*)$", step, re.M)
    digest = re.search(r'echo "([0-9a-f]{64})  \$out"', step)[1]
    golden = (Path(__file__).parent / "golden" / "curve_general.txt").read_bytes()
    assert hashlib.sha256(golden).hexdigest() == digest
    outputs = []
    for command in commands:
        code = main(command.split())
        assert code == EXIT_OK, command
        outputs.append(capsys.readouterr().out)
    actual = "".join(outputs)
    expected = golden.decode()
    assert actual == expected, "".join(difflib.unified_diff(
        expected.splitlines(True), actual.splitlines(True), "golden", "actual"))


def test_curve_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "curve", "--t", "2", "--g", "1,1")
    assert code == EXIT_USAGE


def test_usage_error_on_unknown_option(capsys):
    with pytest.raises(SystemExit) as err:
        main(["curve", "--g", "2,2,0,0,0,1", "--bogus", "e"])
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --bogus e" in captured.err


def test_search_stream_and_determinism(capsys):
    args = ("search", "--t", "-3125/20736", "--height", "30")
    code, out1, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert records[0]["point"] == [0, 1, 0, 0]
    assert records[0]["class"] == {"kind": "generic", "value": "-3125/20736"}
    assert records[0]["trinomial"] == {"a": "-3125/20736", "b": "-3125/20736"}
    assert len(records[0]["rho"]) == 2


def test_search_finds_classified_point(capsys):
    code, out, _ = run_cli(capsys, "search", "--t", "6/5", "--height", "100")
    points = {tuple(json.loads(line)["point"]): json.loads(line)["class"]
              for line in out.splitlines()}
    assert points[(0, 1, 0, 0)] == {"kind": "generic", "value": "6/5"}
    assert points[(88, 70, 75, -60)] == {"kind": "pure", "value": "324"}


def test_root_in_field_certificate(capsys):
    code, out, _ = run_cli(capsys, "root-in-field",
                           "--g", "-18,0,0,0,0,1", "--f", "-324,0,0,0,0,1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "certified"
    assert doc["root"] == ["0", "0", "1", "0", "0"]


def test_root_in_field_inconclusive_exits_3(capsys):
    # x^5 - 2 matches the field's signature; a root count mod 7 proves absence
    code, out, _ = run_cli(capsys, "root-in-field",
                           "--g", "12,-5,0,0,0,1", "--f", "-2,0,0,0,0,1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "absent" and "root" not in doc
    assert "parameters" not in doc


def test_internal_error_is_not_a_failed_check(capsys, monkeypatch):
    def broken(f, field):
        raise ArithmeticError("lift invariant broken modulo 7")

    monkeypatch.setattr(cli, "has_root_in_field", broken)
    code, out, err = run_cli(capsys, "root-in-field",
                             "--g", "-18,0,0,0,0,1", "--f", "-324,0,0,0,0,1")
    assert code == EXIT_INTERNAL and code not in (0, 1, 2)
    assert out == "" and err == "internal error: lift invariant broken modulo 7\n"


# the test process: a forked pool worker has another pid
_TEST_PID = os.getpid()


def _die(*args):
    """Exit a pool worker at once; in the test process, fail the test instead
    of ending pytest with no report."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("_die ran in the test process, not in a pool worker")
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers are not forked, so they do not see the patch")
@pytest.mark.parametrize("argv, module, name", [
    (("search", "--t", "6/5", "--height", "40"), curve, "_search_chunk"),
    (("verify", "paper"), report, "j_invariant"),
])
def test_dead_worker_is_an_internal_error(capsys, monkeypatch, argv, module, name):
    # forked workers inherit the patch and exit at once; the pool breaks.  A
    # height-40 box is too small to pay for workers, so the search is made
    # to start its pool at any size.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(curve, "_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(module, name, _die)
    code, out, err = run_cli(capsys, "--jobs", "2", *argv)
    assert code == EXIT_INTERNAL
    assert out == "" and err.startswith("internal error: ") and err.count("\n") == 1


def _fresh_interpreter_env():
    src = Path(cli.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_exits_quietly_with_its_own_code():
    # the reader of the pipe is gone before the run starts, as after `| head -1`
    env = _fresh_interpreter_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from quintic_trinomials.cli import main; "
             "sys.exit(main())", "--jobs", "1", "search", "--t", "6/5", "--height", "60"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert EXIT_BROKEN_PIPE not in (EXIT_OK, 1, EXIT_USAGE, EXIT_INTERNAL)
    assert proc.stderr == b""


def test_importing_the_command_line_does_not_load_mpmath():
    # only the standalone `roots` module uses mpmath, and the package does
    # not import it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quintic_trinomials.cli; "
         "print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=_fresh_interpreter_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_root_in_field_absent(capsys):
    code, out, _ = run_cli(capsys, "root-in-field",
                           "--g", "-18,0,0,0,0,1", "--f", "1,1,1")
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "absent"


def test_family_subcommands(capsys):
    code, out, _ = run_cli(capsys, "family", "weber", "--param", "2")
    assert json.loads(out)["trinomial"] == {"a": "15/32", "b": "21/16"}
    code, out, _ = run_cli(capsys, "family", "dihedral", "--param", "2")
    doc = json.loads(out)
    assert doc["u"] == "3/2" and doc["trinomial"] == {"a": "1/4", "b": "6/5"}
    code, out, _ = run_cli(capsys, "family", "sw2", "--param", "2")
    doc = json.loads(out)
    assert doc["radicand"] == "24" and doc["trinomial"] == {"a": "96/5", "b": "-192/5"}
    code, out, _ = run_cli(capsys, "family", "pair", "--param", "2")
    doc = json.loads(out)
    assert doc["f"] == {"lead": "40", "a": "-10", "b": "-4"}
    assert doc["h"] == {"lead": "20", "a": "145", "b": "-394"}
    assert doc["verified"] is True


def test_family_excluded_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, "family", "pair", "--param", "-8")
    assert code == EXIT_USAGE


def test_surface_check(capsys):
    code, out, _ = run_cli(capsys, "surface", "check", "--point", "10,1,-3/5,0")
    doc = json.loads(out)
    assert doc["on_surface"] is True and doc["t"] == "0"
    code, out, _ = run_cli(capsys, "surface", "check", "--point", "1,1,1,1")
    assert json.loads(out)["on_surface"] is False


def test_surface_curve(capsys):
    code, out, _ = run_cli(capsys, "surface", "curve", "--name", "R4", "--s", "1")
    doc = json.loads(out)
    assert doc["point"] == [0, 7, -4, -4] and doc["on_surface"] is True


def test_surface_t_undetermined_on_base_locus(capsys):
    # numerator and denominator of t both vanish: t is 0/0, not infinity
    code, out, _ = run_cli(capsys, "surface", "curve", "--name", "R5", "--s", "1")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["point"] == [70, 7, -4, -4] and doc["t"] == "undetermined"
    code, out, _ = run_cli(capsys, "surface", "check", "--point", "10,1,0,0")
    doc = json.loads(out)
    assert doc["on_surface"] is True and doc["t"] == "undetermined"
    assert "on_curve" not in doc


def test_surface_t_infinity_only_with_nonzero_numerator(capsys):
    # the t-infinity line (a : 21d/32 : -3d/4 : d) and the singular line c = d = 0
    for point in ("32,21,-24,32", "3,5,0,0"):
        code, out, _ = run_cli(capsys, "surface", "check", "--point", point)
        doc = json.loads(out)
        assert code == EXIT_OK and doc["on_surface"] is True
        assert doc["t"] == "infinity", point


def test_elliptic_info_and_twist(capsys):
    code, out, _ = run_cli(capsys, "elliptic", "info", "--curve", "0,0,0,-675,-79650")
    assert json.loads(out)["j"] == "-25/2"
    code, out, _ = run_cli(capsys, "elliptic", "twist",
                           "--curve1", "0,0,0,-675,-79650",
                           "--curve2", "0,-1,0,-833,109537")
    doc = json.loads(out)
    assert doc["twists"] is True and doc["twist_factor"] == "-10"


@pytest.fixture
def no_work(monkeypatch):
    """Make a search, the Galois sieve or the paper suite fail if it starts."""
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran at a rejected bound")

    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve ran at a rejected bound")

    monkeypatch.setattr(cli, "point_search", no_search)
    monkeypatch.setattr(cli, "run_acceptance", no_sieve)
    monkeypatch.setattr(cli, "galois_type_heuristic", no_sieve)


_SEARCH = ("search", "--t", "6/5")
_CLASSIFY = ("classify", "--a", "-5", "--b", "12")


@pytest.mark.parametrize("argv, message", [
    ((*_SEARCH, "--height", "0"), "height_bound must be positive"),
    ((*_SEARCH, "--height", "16385"), "height_bound must be at most 16384"),
    (("--prime-bound", "0", *_CLASSIFY), "prime_bound must be positive"),
    (("--prime-bound", "1048577", "verify", "paper"), "prime_bound must be at most 1048576"),
    (("--jobs", "-1", *_SEARCH, "--height", "2"), "jobs must be >= 0 (0 means the CPU count)"),
    # two violations: the prime bound is checked before the height's upper limit
    (("--prime-bound", "1048577", *_SEARCH, "--height", "16385"),
     "prime_bound must be at most 1048576"),
])
def test_run_setting_out_of_range_exits_2(capsys, no_work, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


def test_negative_jobs_exits_2(capsys, no_work):
    # --jobs is a global option: every command rejects a negative value,
    # also one that starts no workers
    for command in (_SEARCH, ("verify", "paper"), _CLASSIFY):
        code, out, err = run_cli(capsys, "--jobs", "-3", *command)
        assert code == EXIT_USAGE and out == "" and "jobs" in err


def test_prime_bound_above_the_limit_exits_2(capsys, no_work):
    limit = cli.MAX_PRIME_BOUND
    assert limit == 1 << 20 and limit <= factor._BATCH_PRIME_LIMIT
    cli._validate(cli.build_parser().parse_args(["--prime-bound", str(limit), *_CLASSIFY]))
    for command in (("verify", "paper"), _CLASSIFY):
        code, out, err = run_cli(capsys, "--prime-bound", str(10 ** 11), *command)
        assert code == EXIT_USAGE and out == "" and "prime_bound" in err


def test_height_above_the_limit_exits_2(capsys, no_work):
    limit = cli.MAX_HEIGHT_BOUND
    assert limit == curve.MAX_HEIGHT_BOUND == 1 << 14
    cli._validate(cli.build_parser().parse_args([*_SEARCH, "--height", str(limit)]))
    code, out, err = run_cli(capsys, *_SEARCH, "--height", str(10 ** 7))
    assert code == EXIT_USAGE and out == "" and "height_bound" in err


@pytest.mark.parametrize("flags, cpus, jobs", [
    ((), 3, 3), (("--jobs", "0"), 3, 3), (("--jobs", "2"), 3, 2), ((), None, 1),
])
def test_jobs_default_to_the_cpu_count(capsys, monkeypatch, flags, cpus, jobs):
    handed = []

    def search(c, height_bound, jobs):
        handed.append(jobs)
        return curve.SearchResult((), (), height_bound)

    def acceptance(jobs, prime_bound):
        handed.append(jobs)
        return ""

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "point_search", search)
    monkeypatch.setattr(cli, "run_acceptance", acceptance)
    assert run_cli(capsys, *flags, *_SEARCH)[0] == EXIT_OK
    assert run_cli(capsys, *flags, "verify", "paper")[0] == EXIT_OK
    assert handed == [jobs, jobs]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "--output", str(target),
                           "classify", "--a", "-5", "--b", "12")
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["discriminant"] == "64000000"


def test_output_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "--output", str(target),
                             "classify", "--a", "-5", "--b", "12")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def test_usage_error_on_unknown_command(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == EXIT_USAGE


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers are not forked, so they do not see the patch")
def test_search_bytes_identical_across_parallelism(capsys, monkeypatch):
    # a height-40 box is too small to pay for workers, so the search is made
    # to start its pool at any size; jobs 1 must still run in-process
    built = []

    class CountedPool(curve.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(curve, "_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(curve, "ProcessPoolExecutor", CountedPool)
    _, serial, _ = run_cli(capsys, "--jobs", "1", *_SEARCH, "--height", "40")
    assert built == []
    _, parallel, _ = run_cli(capsys, "--jobs", "3", *_SEARCH, "--height", "40")
    assert built == [3]
    assert serial == parallel and serial
