"""The benchmark's own tests: determinism, reference checkers and tracer.

Run with ``python3 -m pytest bench`` from the repository root.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import triblock as tb  # noqa: E402
import run  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402


def generate(workload, seed, tmp_path):
    return workloads.generate(workload, seed, tmp_path, ROOT / "fixtures")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_always_yields_the_same_digest(workload, tmp_path):
    first = workloads.digest(generate(workload, 7, tmp_path / "a"))
    again = workloads.digest(generate(workload, 7, tmp_path / "b"))
    other = workloads.digest(generate(workload, 8, tmp_path / "c"))
    assert first == again
    assert first != other


def first_case(cases, cls):
    return next(c for c in cases if c.cls == cls)


def outcome(case):
    inputs = case.build(case.data)
    return case.run(inputs), case.expect(case.data)


def bump(value: float) -> float:
    return value * (1 + 1e-6) + 1e-9


PERTURB = {
    "rho_dense_d10": lambda r: dataclasses.replace(r, rho=bump(r.rho)),
    "cycle6_unit": lambda r: dataclasses.replace(r, rho=bump(r.rho)),
    "mtensor_d10": lambda r: {**r, "m": not r["m"]},
    "product_d6": lambda t: tb.Tensor(t.order, t.dim, {**t.entries, (1,) * t.order:
                                                       t.get((1,) * t.order) + 1.0}),
    "oracle_diag": lambda r: dataclasses.replace(r, min_norm=r.min_norm * 0.9),
    "det_nested": bump,
    "spectrum_nested": lambda s: tb.SpectrumFactored(
        (tb.SpectrumItem((bump(s.items[0].eigenvalues[0]),), s.items[0].exponent),)
        + s.items[1:], s.total_degree),
    "is_blocked_kinds": lambda got: (not got[0],) + got[1:],
    "blocked_partitions": lambda got: got[:-1],
    "left_inverse": lambda out: (out[0], False),
    "normal_form_3rd": lambda nf: dataclasses.replace(
        nf, sigma=tb.Permutation(nf.sigma.image[1:] + nf.sigma.image[:1])),
    "hyper_n60_split": lambda out: (out[0], out[1], [bump(out[2][0])] + out[2][1:]),
    "cli_classify": lambda out: (out[0], out[1].replace("true", "@").replace(
        "false", "true").replace("@", "false")),
    "cli_det": lambda out: (out[0], json.dumps({"det": bump(json.loads(out[1])["det"])})),
    "cli_spectrum": lambda out: (out[0], out[1].replace('"exp": ', '"exp": 1')),
    "cli_fixture": lambda out: (1, out[1]),
}


@pytest.mark.parametrize("cls", sorted(PERTURB))
def test_checker_accepts_the_answer_and_rejects_a_perturbed_one(cls, tmp_path):
    if cls.startswith("hyper"):
        workload = "hypergraph_rho"
    elif cls.startswith(("rho", "cycle", "mtensor", "product", "oracle")):
        workload = "dense_spectral"
    else:
        workload = "cli_docs" if cls.startswith("cli") else "blocked_exact"
    case = first_case(generate(workload, 3, tmp_path), cls)
    result, check = outcome(case)
    assert check(result, None) is None
    assert check(PERTURB[cls](result), None) is not None


def test_checker_counts_a_missing_domain_error_and_a_foreign_exception(tmp_path):
    cases = generate("blocked_exact", 3, tmp_path)
    unavailable = first_case(cases, "nf3_unavailable")
    check = unavailable.expect(unavailable.data)
    assert check(None, tb.errors.NormalFormUnavailable("none")) is None
    assert check("a normal form", None) is not None
    assert check(None, OverflowError("boom")) is not None
    overflow = first_case(cases, "det_diag_overflow")
    check = overflow.expect(overflow.data)
    assert check(None, tb.errors.DimensionTooLarge("x")) is None  # any domain error
    assert check(None, OverflowError("int too large")) is not None
    assert check(float("inf"), None) is not None


def test_cut_interval_reference_matches_the_definition():
    rng = np.random.default_rng(0)
    n = 6
    for kind in workloads.CUT_KINDS:
        for _ in range(5):
            idx = workloads.sample_rows(rng, workloads.all_positions(3, n), 0.05)
            brute = []
            for size in range(1, n + 1):
                for cuts in itertools.combinations(range(1, n), size - 1):
                    bounds = (0,) + cuts + (n,)
                    parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
                    if (kind == "diag" or len(parts) >= 2) and workloads.blocked(idx, parts, kind):
                        brute.append(parts)
            assert workloads.expected_partitions(idx, n, kind) == sorted(brute)


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    latencies = [float(i) for i in range(48)]
    at, percentile, beyond = run.tail(latencies)
    assert (percentile, beyond) == (75.0, 12)
    assert latencies[at] == 35.0
    at, percentile, beyond = run.tail([float(i) for i in range(9)])
    assert percentile == 50.0 and at == 4


def test_tail_percentile_can_be_fixed_from_the_planned_sample_count():
    latencies = [float(i) for i in range(40)]
    at, percentile, beyond = run.tail(latencies, run.tail_percentile(96))
    assert (percentile, beyond) == (75.0, 10)
    assert latencies[at] == 29.0


def test_job_times_drop_the_probes_inside_and_scale_by_the_probes_near():
    ref = run.PROBE_REF_S
    marks = [(0.0, ref), (0.5, 0.5 + 2 * ref), (0.55, 0.55 + 2 * ref), (5.0, 5.0 + 4 * ref)]
    raw, scaled = run.job_times([(0.45, 0.6), (10.0, 10.5)], marks)
    # two probes ran inside the first job, and none started within the margin of the second
    assert raw == pytest.approx([0.15 - 4 * ref, 0.5])
    assert scaled == pytest.approx([raw[0] / 2, raw[1] / 4])


def test_jobs_per_s_takes_each_case_median_over_the_passes():
    two_cases_three_passes = [1.0, 10.0, 3.0, 30.0, 2.0, 20.0]
    assert run.case_medians(two_cases_three_passes, 2) == [2.0, 20.0]


def test_tracer_sees_calls_between_layers_and_restores_them():
    tensor = tb.new_tensor(3, 2, [((1, 2, 2), 1.0), ((2, 1, 1), 2.0)])
    original = tb.apply
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        assert sys.modules["triblock.spectra"].apply is not original
        tracer.job = 5
        result = tb.spectral_radius(tensor)
        tracer.job = 6
        tb.apply(tensor, [1.0, 1.0])
    finally:
        tracer.uninstall()
    assert tb.apply is original and sys.modules["triblock.spectra"].apply is original
    names = [trace_layers.FUNCTIONS[span[2]] for span in tracer.spans]
    root = names.index("spectra.spectral_radius")
    assert tracer.spans[root][:2] == (5, -1)
    assert all(span[1] >= root and span[0] == 5 for span in tracer.spans[root + 1:-1])
    assert tracer.spans[-1][:3] == (6, -1, trace_layers.FUNCTIONS.index("core.apply"))
    metrics = tracer.metrics()
    applies = names.count("core.apply")
    assert metrics["core.apply.calls"]["value"] == applies
    assert metrics["core.apply.terms"]["value"] >= 2 * 2  # the direct call: nnz 2, order 3
    assert metrics["spectra.spectral_radius.iterations"]["value"] == result.iterations
    busy = metrics["spectra.spectral_radius.busy_s"]["value"]
    assert 0 <= metrics["spectra.spectral_radius.self_s"]["value"] <= busy
    assert set(metrics) | {"trace.slowdown"} == set(trace_layers.metric_units())


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_docs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
