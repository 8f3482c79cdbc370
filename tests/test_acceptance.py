"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criteria 1 through 9 are computed once through the library (single
core); criterion 10 runs the installed CLI twice and compares bytes.
All arithmetic is exact, so every tolerance is zero unless a runtime
budget is part of the criterion.  The tests after criterion 10 cover
the process pool that spreads the suite's tasks at jobs >= 2.
"""

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from quintic_trinomials import cli, curve, report
from quintic_trinomials.cli import EXIT_INTERNAL
from quintic_trinomials.curve import _worker_count
from quintic_trinomials.report import run_acceptance, run_criteria, render_report


@pytest.fixture(scope="module")
def criteria():
    results = {r.index: r for r in run_criteria(jobs=1)}
    return results


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  criterion {result.index}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.index}: {result.detail}"


def test_criterion_1_equivalence_parameter(criteria):
    _report(criteria[1])


def test_criterion_2_point_recovery_height_200(criteria):
    _report(criteria[2])


def test_criterion_3_root_certificates(criteria):
    _report(criteria[3])


def test_criterion_4_pair_identity(criteria):
    _report(criteria[4])


def test_criterion_5_discriminant_closed_form(criteria):
    _report(criteria[5])


def test_criterion_6_family_cycle_types(criteria):
    _report(criteria[6])


def test_criterion_7_surface(criteria):
    _report(criteria[7])


def test_criterion_8_elliptic_facts(criteria):
    _report(criteria[8])


def test_criterion_9_power_sum_conditions(criteria):
    _report(criteria[9])


def test_criterion_10_determinism():
    start = time.monotonic()
    cmd = [sys.executable, "-m", "quintic_trinomials.cli", "verify", "paper"]
    first = subprocess.run(cmd, capture_output=True, timeout=1200)
    second = subprocess.run(cmd, capture_output=True, timeout=1200)
    assert first.returncode == 0, first.stdout.decode() + first.stderr.decode()
    assert second.returncode == 0
    identical = first.stdout == second.stdout
    status = "PASS" if identical else "FAIL"
    print(f"{status}  criterion 10: byte-identical verify-paper runs "
          f"-- {len(first.stdout)} bytes each")
    assert identical
    assert b"10/10 criteria passed" in first.stdout
    assert (time.monotonic() - start) < 1200


# A patch made in the test reaches the pool's workers only if they are
# forked from it (the Linux default before Python 3.14).
forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers are not forked, so they do not see the test's patches")


@pytest.fixture
def two_cpus(monkeypatch):
    # the pool path needs two workers, whatever the machine has
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_parallel_criteria_match_the_serial_report(criteria, two_cpus):
    serial = [criteria[i] for i in range(1, 10)]
    assert render_report(run_criteria(jobs=2)) == render_report(serial)


@forked_workers
def test_searches_inside_the_pool_start_no_pool_of_their_own(monkeypatch, two_cpus):
    # forked workers inherit the patched module, so a nested pool would raise
    def no_pool(*args, **kwargs):
        raise AssertionError("a search started a process pool inside a task")

    monkeypatch.setattr(curve, "ProcessPoolExecutor", no_pool)
    assert run_acceptance(jobs=2).endswith("10/10 criteria passed\n")


@forked_workers
def test_one_pool_per_acceptance_run_and_none_at_one_job(monkeypatch, two_cpus):
    built = []

    class CountedPool(report.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(report, "ProcessPoolExecutor", CountedPool)
    # low heights and prime bound: only the pools are counted here
    monkeypatch.setattr(report, "point_search", lambda c, height: curve.point_search(c, 20))
    run_acceptance(jobs=2, prime_bound=50)
    assert built == [2]
    assert multiprocessing.active_children() == []  # the pool's workers are joined
    run_acceptance(jobs=1, prime_bound=50)
    assert built == [2]


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=forked_workers)])
def test_arithmetic_error_in_a_criterion_exits_internal(monkeypatch, capsys, two_cpus, jobs):
    def broken(f, field):
        raise ArithmeticError("lift invariant broken modulo 7")

    monkeypatch.setattr(report, "has_root_in_field", broken)
    assert cli.main(["--jobs", jobs, "verify", "paper"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: lift invariant broken modulo 7\n"


def test_worker_count_caps_huge_jobs_at_the_cpu_count(monkeypatch):
    # checked without starting a process: the report's pool is refused unbuilt
    class Refused(Exception):
        pass

    def no_pool(max_workers):
        sizes.append(max_workers)
        raise Refused

    sizes = []
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(report, "ProcessPoolExecutor", no_pool)
    assert _worker_count(10 ** 6, 10 ** 6) == 3
    with pytest.raises(Refused):
        run_acceptance(jobs=10 ** 6)
    assert sizes == [3]
