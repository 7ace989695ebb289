"""Benchmark runner: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner builds the workload's inputs
from the seed and runs its jobs one after another through the public
``triblock`` API: a closed loop, where the next job starts when the last
returns, in one thread of one process. The work is a whole number of
passes over the workload's cases, planned from ``--seconds`` and the
workload's nominal pass time, so the median and tail land on the same
job classes in every run; a slow machine makes fewer passes. Every
answer is checked, and the runner prints a report followed by one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported at a reference machine speed. A fixed pure-Python
task, the speed probe, runs from a timer every PROBE_PERIOD_S while jobs,
imports and builds run; each of those times, less the probes inside it,
is scaled by ``PROBE_REF_S`` over the median of the probes around it.
The raw wall times are in the report beside the scaled ones.

With ``--trace 0`` the metrics are the end-to-end ones. With
``--trace 1`` the runner runs half the work untraced, then the same
passes with the per-layer tracer installed, and the metrics are the
per-layer ones plus the tracing overhead.
"""
from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before NumPy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Fresh interpreters sampled per run: the runner itself plus children.
SETUP_SAMPLES = 3  # import and build: setup_s
IMPORT_SAMPLES = 7  # import: import_s (every setup sample is one too)
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10  # the tail percentile must leave this many samples above it
# Once it has made MIN_PASSES, a run starts no pass after its passes have
# taken --seconds, so a slow machine stretches it by at most one pass.
MIN_PASSES = 3
# While jobs run, a timer interrupts them every PROBE_PERIOD_S to run the
# speed probe, which usually takes PROBE_REF_S on the reference machine. A
# job's time is scaled by PROBE_REF_S / the median probe that started within
# PROBE_MARGIN_S of the job.
PROBE_REF_S = 0.00035
PROBE_LOOPS = 280
PROBE_PERIOD_S = 0.05
PROBE_MARGIN_S = 0.1


class HarnessError(Exception):
    """The benchmark itself cannot run here (missing sources, failed child)."""


def _probe_step(key: tuple, cuts: tuple) -> int:
    return bisect.bisect_left(cuts, min(key)) + max(key) - len(key)


def speed_probe() -> None:
    """One fixed pure-Python task, whose duration tracks the machine's speed.

    The machine is shared, and its speed drifts by up to half for seconds
    at a time without showing in steal or CPU time. The task does what
    most of the library's time goes to (small function calls, builtins,
    integer arithmetic, tuples, dicts and lists), so it slows down with
    the library; it never calls ``triblock``, so a change to the library
    cannot change it.
    """
    total, table, recent, cuts = 0, {}, [], (2, 5, 7, 11)
    for i in range(PROBE_LOOPS):
        key = (i % 13, i % 7, total % 5)
        total += _probe_step(key, cuts) + (i * 3) % 7
        table[key] = table.get(key, 0) + 1
        recent.append(key[::-1])
        if len(recent) > 50:
            recent.clear()


class SpeedProbe:
    """While entered, runs ``speed_probe`` on entry, on exit and from a
    SIGALRM timer every PROBE_PERIOD_S, also in the middle of a job, and
    records each run's (start, end)."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def _fire(self, signum=None, frame=None):
        start = time.perf_counter()
        speed_probe()
        self.marks.append((start, time.perf_counter()))

    def __enter__(self):
        self._fire()
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._fire()


def job_times(spans, marks) -> tuple[list[float], list[float]]:
    """(raw, scaled) seconds of each job ``(start, end)`` in ``spans``.

    ``marks`` are the probes' ``(start, end)`` in time order. Raw is the
    job's wall time less the probes that ran inside it. Scaled is raw
    times PROBE_REF_S over the median probe that started within
    PROBE_MARGIN_S of the job, or over the closest probe if none did.
    """
    starts = [start for start, _ in marks]
    took = [end - start for start, end in marks]
    raw, scaled = [], []
    for start, end in spans:
        inside = sum(took[bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)])
        lo = bisect.bisect_left(starts, start - PROBE_MARGIN_S)
        hi = bisect.bisect_left(starts, end + PROBE_MARGIN_S)
        near = took[lo:hi]
        if not near:  # the timer waits while a long C call runs
            closest = min((k for k in (lo - 1, lo) if 0 <= k < len(took)),
                          key=lambda k: abs(starts[k] - start))
            near = [took[closest]]
        raw.append(end - start - inside)
        scaled.append(raw[-1] * PROBE_REF_S / statistics.median(near))
    return raw, scaled


def import_library() -> None:
    """Import ``triblock`` from this checkout's ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import triblock
    except ImportError as exc:
        raise HarnessError(f"cannot import triblock from {src}: {exc}") from exc
    if not Path(triblock.__file__).resolve().is_relative_to(src.resolve()):
        raise HarnessError(f"triblock resolved outside {src}: {triblock.__file__}")


def set_up(workload: str, seed: int, workdir: Path | None):
    """Import ``triblock`` and, given ``workdir``, build the workload's inputs.

    Both are timed under the speed probe, like the jobs. Returns the
    interpreter's sample (``import_s``, and ``setup_s`` when built, with
    their raw wall times) and the cases and inputs (``None`` unless built).
    """
    clock = time.perf_counter
    with SpeedProbe() as speed:
        start = clock()
        import_library()
        imported = clock()
        import workloads
        if workload not in workloads.WORKLOADS:
            raise HarnessError(f"unknown workload {workload!r}; "
                               f"choose from {', '.join(workloads.WORKLOADS)}")
        built = None
        if workdir is not None:
            cases = workloads.generate(workload, seed, workdir, ROOT / "fixtures")
            built = cases, [case.build(case.data) for case in cases]
        end = clock()
    raw, scaled = job_times([(start, imported), (start, end)], speed.marks)
    sample = {"import_s": scaled[0], "raw_import_s": raw[0]}
    if built is not None:
        sample.update(setup_s=scaled[1], raw_setup_s=raw[1])
    return sample, built


def probe(workload: str, seed: int, build: bool) -> dict:
    """What one fresh interpreter pays before its first job."""
    with tempfile.TemporaryDirectory(dir=work_root()) as workdir:
        return set_up(workload, seed, Path(workdir) if build else None)[0]


def work_root() -> Path:
    path = BENCH / ".work"
    path.mkdir(exist_ok=True)
    return path


def probe_child(workload: str, seed: int, build: bool) -> dict:
    """One sample from a fresh interpreter, which this process waits for."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", "setup" if build else "import",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise HarnessError(f"child interpreter failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def passes_for(workload: str, seconds: float) -> int:
    import workloads
    return max(MIN_PASSES, round(seconds / workloads.PASS_SECONDS[workload]))


def run_passes(cases, inputs, checkers, passes: int, seconds: float, tracer=None,
               job_base: int = 0, between=None) -> dict:
    """Closed loop over whole passes.

    Returns the jobs' ``raw`` and ``scaled`` times, their ``outcomes`` and
    the speed ``probes`` that ran. ``between`` runs after each pass, with
    the probe's timer off. After MIN_PASSES, the loop stops early once the
    passes themselves have taken ``seconds``.
    """
    spans: list[tuple[float, float]] = []
    outcomes: list[tuple[str, str | None]] = []
    probe = SpeedProbe()
    clock = time.perf_counter
    spent = 0.0
    for done in range(passes):
        if done >= MIN_PASSES and spent > seconds:
            break
        pass_start = clock()
        with probe:
            for index, (case, inp, check) in enumerate(zip(cases, inputs, checkers)):
                if tracer is not None:
                    tracer.job = job_base + done * len(cases) + index
                start = clock()
                try:
                    result, exc = case.run(inp), None
                except Exception as err:  # a failing job is recorded, never fatal
                    result, exc = None, err
                spans.append((start, clock()))
                try:
                    reason = check(result, exc)
                except Exception as err:
                    reason = f"checker raised {type(err).__name__}: {err}"
                outcomes.append((case.cls, reason))
                del result, exc
        spent += clock() - pass_start
        if between is not None:
            between()
    raw, scaled = job_times(spans, probe.marks)
    return {"raw": raw, "scaled": scaled, "outcomes": outcomes,
            "probes": [end - start for start, end in probe.marks]}


def case_medians(latencies: list[float], cases_per_pass: int) -> list[float]:
    """Each case's median time over the passes made."""
    return [statistics.median(latencies[i::cases_per_pass]) for i in range(cases_per_pass)]


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile that leaves at least TAIL_BEYOND of ``samples`` above it."""
    best = 50.0
    for p in TAIL_LADDER:
        if samples - max(1, math.ceil(p / 100 * samples)) >= TAIL_BEYOND:
            best = p
    return best


def tail(latencies: list[float], percentile: float | None = None) -> tuple[int, float, int]:
    """The sample at ``percentile``, by default the highest ladder one with
    at least TAIL_BEYOND samples above it.

    Returns (index of that sample in ``latencies``, percentile, samples beyond).
    """
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    n = len(order)
    if percentile is None:
        percentile = tail_percentile(n)
    rank = max(1, math.ceil(percentile / 100 * n))
    return order[rank - 1], percentile, n - rank


def summarize_outcomes(outcomes, known):
    attempted = Counter(cls for cls, _ in outcomes)
    failed = Counter(cls for cls, reason in outcomes if reason)
    reasons = {}
    for cls, reason in outcomes:
        if reason and cls not in reasons:
            reasons[cls] = reason
    by_class = {cls: {"attempted": attempted[cls], "failed": failed[cls],
                      "known_defect": cls in known, "first_reason": reasons.get(cls)}
                for cls in sorted(attempted)}
    unexpected = sorted(cls for cls in failed if cls not in known)
    return attempted, failed, by_class, unexpected


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, input_digest: str) -> dict:
    import networkx
    import numpy
    return {"workload": workload, "seed": seed, "input_digest": input_digest,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "networkx": networkx.__version__,
            "git_commit": git_commit(), "platform": platform.platform(),
            "load": "closed loop, 1 caller, 1 thread, 1 process"}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        print(json.dumps(probe(args.workload, args.seed, args.probe == "setup")))
        return 0

    workdir = Path(tempfile.mkdtemp(dir=work_root()))
    try:
        own_sample, (cases, inputs) = set_up(args.workload, args.seed, workdir)
        import workloads
        input_digest = workloads.digest(cases)
        checkers = [case.expect(case.data) for case in cases]
        report = {"provenance": provenance(args.workload, args.seed, input_digest),
                  "cases_per_pass": len(cases)}
        if args.trace:
            result = traced_run(args, cases, inputs, checkers)
        else:
            result = untraced_run(args, cases, inputs, checkers, own_sample)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, by_class, unexpected = summarize_outcomes(
        result.pop("outcomes"), workloads.KNOWN_DEFECTS)
    report["failures_by_class"] = {c: v for c, v in by_class.items() if v["failed"]}
    report["known_defect_classes"] = {c: workloads.KNOWN_DEFECTS[c]
                                      for c in by_class if c in workloads.KNOWN_DEFECTS}
    report["unexpected_failure_classes"] = unexpected
    report["fail_ratio"] = sum(failed.values()) / sum(attempted.values())
    report.update(result.pop("report"))
    print(json.dumps(report, indent=1, sort_keys=True))
    total = sum(attempted.values())
    metrics = result["metrics"]
    if not args.trace:
        metrics["pass_ratio"] = metric((total - sum(failed.values())) / total, "ratio")
    print(json.dumps({"correct": not unexpected, "attempted": total,
                      "failed": sum(failed.values()), "metrics": metrics}))
    return 0


def untraced_run(args, cases, inputs, checkers, own_sample) -> dict:
    # Child interpreters are spread over the run so that the medians span
    # it instead of one moment of a machine whose speed drifts.
    samples = [own_sample]

    def take_sample():
        if len(samples) < IMPORT_SAMPLES:
            samples.append(probe_child(args.workload, args.seed, len(samples) < SETUP_SAMPLES))

    passes = passes_for(args.workload, args.seconds)
    take_sample()
    timed = run_passes(cases, inputs, checkers, passes, args.seconds, between=take_sample)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(samples) < IMPORT_SAMPLES:
        take_sample()
    raw, latencies, outcomes, probes = (timed["raw"], timed["scaled"], timed["outcomes"],
                                        timed["probes"])
    n = len(cases)
    # The tail percentile follows from the planned sample count, so a run
    # cut short by its deadline reads the same percentile.
    tail_at, tail_p, beyond = tail(latencies, tail_percentile(passes * n))
    ordered = sorted(range(len(latencies)), key=latencies.__getitem__)
    median_classes = sorted({outcomes[i][0] for i in ordered[(len(ordered) - 1) // 2:
                                                           len(ordered) // 2 + 1]})
    per_class = defaultdict(list)
    for (cls, _), lat in zip(outcomes, latencies):
        per_class[cls].append(lat)
    metrics = {
        "jobs_per_s": metric(n / sum(case_medians(latencies, n)), "jobs/s"),
        "latency_p50_s": metric(statistics.median(latencies), "s"),
        "latency_tail_s": metric(latencies[tail_at], "s"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in samples if "setup_s" in s), "s"),
        "import_s": metric(statistics.median(s["import_s"] for s in samples), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return {"metrics": metrics, "outcomes": outcomes, "report": {
        "passes": len(raw) // n, "passes_planned": passes, "timed_s": sum(raw),
        "pass_s": [sum(raw[i:i + n]) for i in range(0, len(raw), n)],
        "raw": {"jobs_per_s": n / sum(case_medians(raw, n)),
                "latency_p50_s": statistics.median(raw),
                "latency_tail_s": raw[tail(raw, tail_p)[0]]},
        "probe_s": {"reference": PROBE_REF_S, "runs": len(probes),
                    "median": statistics.median(probes), "min": min(probes), "max": max(probes)},
        "latency_tail": {"percentile": tail_p, "samples": len(latencies),
                         "samples_beyond": beyond, "job_class": outcomes[tail_at][0]},
        "latency_p50_job_classes": median_classes,
        "interpreters": samples,
        "class_median_latency_s": {c: statistics.median(v) for c, v in sorted(per_class.items())},
    }}


def traced_run(args, cases, inputs, checkers) -> dict:
    import trace_layers
    passes = passes_for(args.workload, args.seconds / 2)
    plain = run_passes(cases, inputs, checkers, passes, args.seconds / 2)
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        traced = run_passes(cases, inputs, checkers, len(plain["raw"]) // len(cases),
                            args.seconds, tracer=tracer, job_base=len(plain["raw"]))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # per-job means over whole passes: the traced phase may stop early
    plain_mean = statistics.fmean(plain["scaled"])
    traced_mean = statistics.fmean(traced["scaled"])
    metrics["trace.slowdown"] = metric(traced_mean / plain_mean, "ratio")
    out_dir = BENCH / ".out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}.json"
    tracer.write(spans_path)
    return {"metrics": metrics, "outcomes": plain["outcomes"] + traced["outcomes"], "report": {
        "passes_per_phase": len(plain["raw"]) // len(cases),
        "untraced_jobs_per_s": 1 / plain_mean,
        "traced_jobs_per_s": 1 / traced_mean,
        "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
    }}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
