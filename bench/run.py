"""Benchmark of the quintic-trinomials toolkit.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: deep-search, sweep, field-queries, paper (see bench/NOTES.md).
One client runs requests closed-loop, one after another, cycling over the
workload's request list until S seconds have passed (a first pass always
completes).  Every output is checked; the human-readable lines name each
end-to-end metric with its unit, and the last line of stdout is a JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 1 the
run makes one untraced and one traced pass at jobs=1 and reports
per-layer metrics instead.  Results go to .bench_out/ in the checkout.

Times are reported in reference seconds (see SpeedProbe).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TICK_DIR_ENV = "BENCH_TICK_DIR"
SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

TICK_INTERVAL_S = 0.05
TICK_REF_S = 150e-6  # mean tick on the 2-vCPU reference host when neither vCPU is slowed
MIN_WINDOW_S = 1.0
_TICK_TERMS = tuple(Fraction(i, i + 3) for i in range(1, 30))


def _tick_job() -> Fraction:
    acc = Fraction(0)
    for x in _TICK_TERMS:
        acc += x * x
    return acc


class SpeedProbe:
    """Times a fixed micro-job of exact arithmetic every 50 ms, on SIGALRM.

    Each vCPU of the shared host flips between a fast and a ~1.8x slower
    state every few seconds (see NOTES.md), which no bound on raw times
    survives.  The tick runs inside the process between bytecodes, so it
    samples the speed of the CPU the work runs on while it runs.  A time
    is reported in reference seconds: measured seconds times TICK_REF_S
    over the mean tick around it.  The micro-job is the benchmark's own
    code, so no change to the library moves it.

    With a tick directory, processes forked while the probe is active
    (the jobs=2 search pools) tick too and append their ticks to a file
    there, as does a `--paper-child` process (`share_own`), so work in
    child processes is sampled where it runs.
    """

    def __init__(self, tick_dir: Optional[Path] = None, share_own: bool = False):
        self.ticks: List[Tuple[float, float]] = []  # (start, seconds)
        self.tick_dir = tick_dir
        self._share_own = share_own
        self._sink = None
        self._active = False
        self._in_tick = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._in_tick:  # a late alarm inside a tick: skip rather than nest
            return
        self._in_tick = True
        try:
            start = time.perf_counter()
            _tick_job()
            seconds = time.perf_counter() - start
            self.ticks.append((start, seconds))
            if self._sink is not None:
                self._sink.write(f"{start!r} {seconds!r}\n")
        finally:
            self._in_tick = False

    def _open_sink(self):
        self._sink = open(self.tick_dir / f"ticks-{os.getpid()}.txt", "a", buffering=1)

    def _in_forked_child(self):
        if self._active:
            self.ticks = []
            self._open_sink()
            signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

    def __enter__(self):
        if self.tick_dir is not None:
            self.tick_dir.mkdir(parents=True, exist_ok=True)
            os.register_at_fork(after_in_child=self._in_forked_child)
            if self._share_own:
                self._open_sink()
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._active = False
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        elif self.tick_dir is not None:
            shutil.rmtree(self.tick_dir, ignore_errors=True)
        return False

    def _all_ticks(self) -> List[Tuple[float, float]]:
        ticks = list(self.ticks)
        if self.tick_dir is not None and not self._share_own:
            for path in self.tick_dir.glob("ticks-*.txt"):
                for line in path.read_text().splitlines():
                    fields = line.split()
                    if len(fields) == 2:  # a child may be mid-write
                        ticks.append((float(fields[0]), float(fields[1])))
        return ticks

    def scale(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Reference seconds per measured second over [start, end], widened to MIN_WINDOW_S.

        Without a window, over every tick so far.  perf_counter is
        CLOCK_MONOTONIC, so tick times of all processes compare.
        """
        all_ticks = self._all_ticks()
        ticks = [d for _, d in all_ticks]
        if start is not None:
            pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2)
            ticks = [d for t, d in all_ticks if start - pad <= t <= end + pad] or ticks
        if not ticks:
            raise RuntimeError("no speed ticks recorded")
        return TICK_REF_S / statistics.fmean(ticks)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    latencies: Dict[int, List[float]] = field(default_factory=lambda: defaultdict(list))  # reference s
    raw: Dict[int, List[float]] = field(default_factory=lambda: defaultdict(list))  # measured s
    attempted: int = 0
    failed: int = 0
    undecided: Counter = field(default_factory=Counter)
    attempted_by_label: Counter = field(default_factory=Counter)
    problems: List[str] = field(default_factory=list)
    counts: Optional[Counter] = None
    digest: str = ""
    passes: int = 0
    # undecided and attempted per label over the completed passes only
    full_undecided: Counter = field(default_factory=Counter)
    full_attempted: Counter = field(default_factory=Counter)

    def pass_seconds(self, requests, label_prefix: str = "") -> float:
        """Sum over the requests of each one's median latency."""
        return sum(statistics.median(self.latencies[i]) for i, r in enumerate(requests)
                   if r.label.startswith(label_prefix) and self.latencies[i])

    def samples(self, requests, label_prefix: str) -> List[float]:
        return [x for i, r in enumerate(requests) if r.label.startswith(label_prefix)
                for x in self.latencies[i]]


def run_loop(workloads, requests, seconds: float, probe: SpeedProbe, tracer=None) -> LoopResult:
    """Cycle over the requests until `seconds` pass; the first pass always completes.

    After the first pass a request starts only if its previous latency
    still fits before the deadline.  Each output must equal the first
    output for the same inputs (across passes and across jobs), and each
    pass must give the first pass's exact counts.  Latencies are turned
    into reference seconds at the end, when the ticks on both sides of
    every request are in.
    """
    res = LoopResult()
    starts: Dict[int, List[float]] = defaultdict(list)
    _cycle(workloads, requests, seconds, tracer, res, starts)
    for i, raw in res.raw.items():
        res.latencies[i] = [x * probe.scale(t, t + x) for t, x in zip(starts[i], raw)]
    return res


def _cycle(workloads, requests, seconds, tracer, res: LoopResult, starts) -> None:
    deadline = time.perf_counter() + seconds
    first_output: Dict[str, str] = {}
    while True:
        counts: Counter = Counter()
        for i, req in enumerate(requests):
            if res.passes and time.perf_counter() + (res.raw[i] or [0.0])[-1] > deadline:
                return
            if tracer is not None:
                tracer.request = f"{res.passes}:{i}"
            res.attempted += 1
            res.attempted_by_label[req.label] += 1
            start = time.perf_counter()
            try:
                latency, raw = workloads.execute(req)
                outcome = workloads.check(req, raw)
            except Exception:  # a raising request is a failed operation; keep measuring
                res.failed += 1
                res.undecided[req.label] += 1
                res.problems.append(f"{req.key} (jobs={req.jobs}) raised:\n{traceback.format_exc()}")
                continue
            res.raw[i].append(latency)
            starts[i].append(start)
            expected = first_output.setdefault(req.key, outcome.canonical)
            if outcome.canonical != expected:
                outcome.problems.append("output differs from an earlier run of the same inputs")
            if outcome.problems:
                res.failed += 1
                res.problems.extend(f"{req.key} (jobs={req.jobs}): {p}" for p in outcome.problems)
            res.undecided[req.label] += outcome.undecided
            counts.update(outcome.counts)
        if res.counts is None:
            res.counts = counts
            digest = hashlib.sha256()
            for key in dict.fromkeys(r.key for r in requests):
                digest.update(f"{key}\n{first_output.get(key)}\n".encode())
            res.digest = digest.hexdigest()
        elif counts != res.counts:
            res.problems.append(f"pass {res.passes} counts {dict(counts)} differ from {dict(res.counts)}")
        res.passes += 1
        res.full_undecided = res.undecided.copy()
        res.full_attempted = res.attempted_by_label.copy()
        if seconds <= 0:
            return


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: List[float]):
    """(percentile, value) of the highest whole percentile with >= 10 samples above it."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # nearest-rank percentile, 1-based
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return pct, xs[rank - 1]
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(workload: str, seed: int) -> List[Tuple[float, float]]:
    """(measured seconds, speed scale) of SETUP_PROBES fresh interpreters, each until its inputs are ready.

    Each probe reports the speed scale its own ticks saw while it set up.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__)), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            seconds = time.perf_counter() - start
            rest = child.stdout.read().split()
        if child.returncode != 0 or ready.strip() != "ready" or not rest:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        samples.append((seconds, float(rest[-1])))
    return samples


def named_metrics(workload: str, requests, loop: LoopResult, setup: List[Tuple[float, float]]):
    """The issue's end-to-end metrics of this workload: name -> (value, unit, note)."""
    out = {"setup_s": (statistics.median(s * k for s, k in setup), "s",
                       f"median of {len(setup)} fresh interpreters"),
           "pass_s": (loop.pass_seconds(requests), "s", f"{loop.passes} full passes")}
    if workload == "deep-search":
        for j in (1, 2):
            out[f"search_j{j}_s"] = (loop.pass_seconds(requests, f"search.j{j}"), "s",
                                     "sum of per-search medians")
    elif workload == "sweep":
        out["sweep_s"] = (loop.pass_seconds(requests), "s", "sum of per-curve medians")
    elif workload == "field-queries":
        for name, label in (("rif_hit_p50_ms", "rif.hit"), ("rif_random_p50_ms", "rif.random"),
                            ("classify_p50_ms", "classify")):
            xs = loop.samples(requests, label)
            out[name] = (statistics.median(xs) * 1000 if xs else float("nan"), "ms", f"n={len(xs)}")
        rif = loop.samples(requests, "rif.")
        pct = tail(rif)
        out["rif_tail_ms"] = ((pct[1] * 1000, "ms", f"p{pct[0]}, n={len(rif)}") if pct
                              else (float("nan"), "ms", f"fewer than {TAIL_BEYOND + 1} samples"))
        tried = sum(n for label, n in loop.full_attempted.items() if label.startswith("rif."))
        undecided = sum(n for label, n in loop.full_undecided.items() if label.startswith("rif."))
        out["rif_undecided_frac"] = (undecided / tried if tried else 0.0, "ratio",
                                     f"{undecided}/{tried} in full passes")
    elif workload == "paper":
        xs = loop.samples(requests, "paper")
        out["paper_s"] = (statistics.median(xs) if xs else float("nan"), "s", f"n={len(xs)}")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB", "self + largest child")
    out["failed_frac"] = (loop.failed / loop.attempted if loop.attempted else 0.0, "ratio",
                          f"{loop.failed}/{loop.attempted}")
    return out


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, jobs: str) -> dict:
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "commit": git_commit(), "seed": args.seed, "jobs": jobs,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def write_result(args, document: dict, spans=None) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        rows = [[s.name, s.start, s.end, s.parent, s.request] for s in spans]
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(rows) + "\n")


def final_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}})


def speed_line(probe: SpeedProbe) -> str:
    mean = statistics.fmean(d for _, d in probe.ticks)
    return (f"# speed: {len(probe.ticks)} ticks, mean {mean * 1e6:.1f} us, reference "
            f"{TICK_REF_S * 1e6:.1f} us; times are in reference seconds")


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def tick_dir() -> Path:
    path = OUT_DIR / f"ticks-{os.getpid()}"
    os.environ[TICK_DIR_ENV] = str(path)  # read by --paper-child processes
    return path


def untraced(args, workloads) -> int:
    with SpeedProbe(tick_dir()) as probe:
        setup = setup_seconds(args.workload, args.seed)
        requests = workloads.build_requests(args.workload, args.seed)
        loop = run_loop(workloads, requests, args.seconds, probe)
    named = named_metrics(args.workload, requests, loop, setup)
    jobs = "1,2" if args.workload == "deep-search" else str(max(r.jobs for r in requests))
    env = environment(args, jobs)
    correct = not loop.problems
    print(f"# workload {args.workload}  seed {args.seed}  closed loop, 1 client, {loop.passes} full passes, "
          f"{len(requests)} requests per pass")
    print(f"# env {json.dumps(env)}")
    print(speed_line(probe))
    for name, (value, unit, note) in named.items():
        print(f"{name:<20} {value:>14.6f} {unit:<6} {note}")
    print(f"# counts {json.dumps(dict(sorted(loop.counts.items())))}")
    print(f"# digest {loop.digest}")
    for problem in loop.problems:
        print(f"# FAILED {problem}")
    write_result(args, {"env": env, "correct": correct, "attempted": loop.attempted,
                        "failed": loop.failed, "problems": loop.problems,
                        "metrics": {k: {"value": v[0], "unit": v[1], "note": v[2]} for k, v in named.items()},
                        "counts": loop.counts, "digest": loop.digest,
                        "raw": {"setup_s_and_scale": setup, "ticks": probe.ticks,
                                "latency_s": {f"{i:03d}:{r.label}": loop.raw[i]
                                              for i, r in enumerate(requests)}}})
    print(final_line(correct, loop.attempted, loop.failed, {k: named[k] for k in END_TO_END}))
    return 0


def paper_child() -> int:
    """`quintrin --jobs 2 verify paper`, ticking, and timing the import and run_acceptance."""
    with SpeedProbe(Path(os.environ[TICK_DIR_ENV]), share_own=True):
        start = time.perf_counter()
        import quintic_trinomials.cli as cli
        import_s = time.perf_counter() - start
        spent = []
        original = cli.run_acceptance

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return original(*a, **kw)
            finally:
                spent.append(time.perf_counter() - t0)

        cli.run_acceptance = timed
        code = cli.main(list(inputs.PAPER_ARGS))
    sys.stdout.flush()
    print(json.dumps({"import_s": import_s, "run_acceptance_s": sum(spent)}), file=sys.stderr)
    return code


def _timed(probe: SpeedProbe, fn):
    """(result, measured seconds, speed scale) of fn()."""
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return result, seconds, probe.scale(start, start + seconds)


def traced_paper(workloads, tracer, probe: SpeedProbe) -> dict:
    """The CLI process at jobs=2, then one suite in process untraced and traced at jobs=1."""
    from quintic_trinomials import report
    paper = workloads.build_requests("paper", 0)[0]
    child, wall, child_scale = _timed(probe, lambda: workloads.execute(paper)[1])
    problems = workloads.check(paper, child).problems
    timings = json.loads(child.stderr.strip().splitlines()[-1])
    spans_before = len(tracer.spans)
    plain, untraced_s, untraced_scale = _timed(
        probe, lambda: report.render_report(report.run_criteria(jobs=1)))
    if len(tracer.spans) != spans_before:
        problems.append("the untraced suite recorded spans")
    with tracer:
        tracer.request = "paper"
        traced, traced_s, traced_scale = _timed(
            probe, lambda: report.render_report(report.run_criteria(jobs=1)))
    failed = 1 if problems else 0
    if traced != plain:
        problems.append("traced suite report differs from the untraced one")
        failed += 1
    return {"problems": problems, "attempted": 2, "failed": failed,
            "overhead": (traced_s * traced_scale) / (untraced_s * untraced_scale) - 1.0,
            "cli.import_s": timings["import_s"] * child_scale,
            "cli.process_overhead_s": (wall - timings["run_acceptance_s"]) * child_scale,
            "counts": {"criteria_passed": plain.count("  PASS  ")}}


def traced(args, workloads) -> int:
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    with SpeedProbe(tick_dir()) as probe:
        with tracer:
            requests = workloads.build_requests(args.workload, args.seed, jobs1_only=True)
        if args.workload == "paper":
            run = traced_paper(workloads, tracer, probe)
        else:
            spans_before = len(tracer.spans)
            plain = run_loop(workloads, requests, 0, probe)
            problems = plain.problems + (["the untraced pass recorded spans"]
                                         if len(tracer.spans) != spans_before else [])
            with tracer:
                loop = run_loop(workloads, requests, 0, probe, tracer)
            problems += loop.problems
            if (plain.counts, plain.digest) != (loop.counts, loop.digest):
                problems.append("traced counts or digest differ from the untraced pass")
            run = {"problems": problems, "attempted": plain.attempted + loop.attempted,
                   "failed": plain.failed + loop.failed,
                   "overhead": loop.pass_seconds(requests) / plain.pass_seconds(requests) - 1.0,
                   "cli.import_s": 0.0, "cli.process_overhead_s": 0.0, "counts": loop.counts}
        scale = probe.scale()
    layers = layer_metrics(tracer.spans)
    for name in layers:
        unit = layer_unit(name)
        layers[name] *= scale if unit == "s" else 1 / scale if unit == "1/s" else 1
    layers["cli.import_s"] = run["cli.import_s"]
    layers["cli.process_overhead_s"] = run["cli.process_overhead_s"]
    layers["trace.overhead_frac"] = run["overhead"]
    env = environment(args, "1")
    env["note"] = "traced at jobs=1: spans inside ProcessPoolExecutor workers are not visible"
    correct = not run["problems"]
    print(f"# workload {args.workload}  seed {args.seed}  traced, jobs=1, {len(tracer.spans)} spans")
    print(f"# env {json.dumps(env)}")
    print(speed_line(probe))
    for name, value in layers.items():
        print(f"{name:<48} {value:>16.6f} {layer_unit(name)}")
    print(f"# counts {json.dumps(dict(sorted(run['counts'].items())))}")
    for problem in run["problems"]:
        print(f"# FAILED {problem}")
    write_result(args, {"env": env, "correct": correct, "problems": run["problems"],
                        "layers": layers, "counts": run["counts"], "raw": {"ticks": probe.ticks}},
                 tracer.spans)
    print(final_line(correct, run["attempted"], run["failed"],
                     {k: (v, layer_unit(k)) for k, v in layers.items()}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_decision")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--paper-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "quintic_trinomials" / "__init__.py").is_file():
        print(f"error: no quintic_trinomials package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.paper_child:
        return paper_child()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        with SpeedProbe() as probe:
            import workloads
            workloads.build_requests(args.workload, args.seed)
        print("ready", flush=True)
        print(probe.scale())
        return 0
    import workloads
    return traced(args, workloads) if args.trace else untraced(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
