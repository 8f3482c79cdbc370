"""Command-line surface: JSON shapes, exit codes, determinism."""

import json
import multiprocessing
import os
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
    code2, out2, _ = run_cli(capsys, "curve", "--g", "2,2,0,0,0,1", "--eliminate", "e")
    assert json.loads(out2)["eliminated"] == "e"


def test_curve_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "curve", "--t", "2", "--g", "1,1")
    assert code == EXIT_USAGE


def test_curve_eliminate_without_general_field_exits_2(capsys):
    code, out, err = run_cli(capsys, "curve", "--t", "6/5", "--eliminate", "a")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "--eliminate" in err


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


def _die(*args):
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers are not forked, so they do not see the patch")
@pytest.mark.parametrize("argv, module, name", [
    (("search", "--t", "6/5", "--height", "40"), curve, "_search_chunk"),
    (("verify", "paper"), report, "j_invariant"),
])
def test_dead_worker_is_an_internal_error(capsys, monkeypatch, argv, module, name):
    # forked workers inherit the patch and exit at once; the pool breaks
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(module, name, _die)
    code, out, err = run_cli(capsys, "--jobs", "2", *argv)
    assert code == EXIT_INTERNAL
    assert out == "" and err.startswith("internal error: ") and err.count("\n") == 1


def test_closed_stdout_exits_quietly_with_its_own_code():
    # the reader of the pipe is gone before the run starts, as after `| head -1`
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
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


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("height_bound = 5\njobs = 1\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "search", "--t", "6/5")
    assert code == EXIT_OK
    assert [json.loads(l)["point"] for l in out.splitlines()] == [[0, 1, 0, 0]]
    monkeypatch.setenv("QUINTRIN_JOBS", "1")
    code, out2, _ = run_cli(capsys, "--config", str(cfg), "search", "--t", "6/5")
    assert out2 == out


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "classify", "--a", "1", "--b", "2")
    assert code == EXIT_USAGE


def test_negative_jobs_exits_2(tmp_path, capsys, monkeypatch):
    search = ("search", "--t", "6/5", "--height", "2")
    code, out, err = run_cli(capsys, "--jobs", "-1", *search)
    assert code == EXIT_USAGE and out == "" and "jobs" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jobs = -3\n")
    assert run_cli(capsys, "--config", str(cfg), *search)[0] == EXIT_USAGE
    monkeypatch.setenv("QUINTRIN_JOBS", "-2")
    assert run_cli(capsys, *search)[0] == EXIT_USAGE


def test_prime_bound_above_the_limit_exits_2(tmp_path, capsys, monkeypatch):
    limit = cli.MAX_PRIME_BOUND
    assert limit == 1 << 20 and limit <= factor._BATCH_PRIME_LIMIT
    parser = cli.build_parser()
    classify = ("classify", "--a", "-5", "--b", "12")
    cli.build_config(parser.parse_args(["--prime-bound", str(limit), *classify]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"prime_bound = {limit + 1}\n")
    for argv in (["--prime-bound", str(limit + 1), *classify],
                 ["--prime-bound", str(10 ** 11), "verify", "paper"],
                 ["--config", str(cfg), "verify", "paper"]):
        with pytest.raises(ValueError, match="prime_bound must be at most"):
            cli.build_config(parser.parse_args(argv))
    with pytest.raises(ValueError, match="prime_bound must be at most"):
        cli.RunConfig(prime_bound=limit + 1).validate()

    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve ran at a rejected bound")

    monkeypatch.setattr(cli, "run_acceptance", no_sieve)
    monkeypatch.setattr(cli, "galois_type_heuristic", no_sieve)
    code, out, err = run_cli(capsys, "--prime-bound", str(10 ** 11), "verify", "paper")
    assert code == EXIT_USAGE and out == "" and "prime_bound" in err
    code, out, err = run_cli(capsys, "--config", str(cfg), *classify)
    assert code == EXIT_USAGE and out == "" and "prime_bound" in err


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


def test_search_bytes_identical_across_parallelism(capsys, monkeypatch):
    monkeypatch.setenv("QUINTRIN_JOBS", "1")
    _, serial, _ = run_cli(capsys, "search", "--t", "6/5", "--height", "40")
    monkeypatch.setenv("QUINTRIN_JOBS", "3")
    _, parallel, _ = run_cli(capsys, "search", "--t", "6/5", "--height", "40")
    assert serial == parallel
