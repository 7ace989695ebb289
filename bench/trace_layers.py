"""Per-layer tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions in ``FUNCTIONS`` and
rebinds every reference to them across the loaded ``triblock.*`` modules,
so calls between layers (``spectra`` calling ``apply``, ``cli`` calling
the parser) are seen as well as the benchmark's own calls. The untraced
run never installs it.

Each call becomes a span ``(job, parent, function, start, end, error,
outermost)`` kept in memory; ``write`` saves them once the run ends. A
function's ``self_s`` is its spans' time minus the time their wrapped
child calls cover; ``busy_s`` counts only outermost calls, so recursion
is not counted twice. Work counts are computed from each call's inputs
and outputs after its span closes.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

FUNCTIONS = (
    "tensorio.loads_tensor", "tensorio.dumps",
    "cli.run",
    "core.apply", "core.principal_subtensor", "core.permute_similar",
    "core.representation_matrix", "core.new_tensor",
    "blocked.is_blocked", "blocked.blocked_partitions", "blocked.diagonal_blocks",
    "product.general_product",
    "spectra.spectral_radius", "spectra.det_blocked", "spectra.spectrum_blocked",
    "spectra.singularity_oracle",
    "structure.is_weakly_irreducible", "structure.normal_form_2nd",
    "structure.normal_form_3rd", "structure.find_reducing_set",
    "structure.adjacency_tensor", "structure.connected_components",
    "inverse.left_k_inverse", "inverse.right_k_inverse", "inverse.verify_inverse",
    "linalg.invert", "linalg.is_nonsingular",
    "mtensor.m_tensor_report",
)
# the functions that raise in some workload at the seed commit
RAISING = ("blocked.blocked_partitions", "spectra.spectral_radius", "spectra.det_blocked",
           "structure.normal_form_3rd")
WORK_COUNTS = ("core.apply.terms", "product.general_product.terms",
               "blocked.blocked_partitions.candidates", "blocked.blocked_partitions.found",
               "spectra.spectral_radius.iterations")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name in RAISING:
            units[f"{name}.errors"] = "count"
    units.update({name: "count" for name in WORK_COUNTS})
    units["trace.slowdown"] = "ratio"
    return units


def _apply_terms(tracer, args, result, exc, parent):
    tensor = args[0]
    tracer.counts["core.apply.terms"] += tensor.nnz * (tensor.order - 1)


def _product_terms(tracer, args, result, exc, parent):
    a, b = args[0], args[1]
    rows = Counter(idx[0] for idx in b.entries)
    total = 0
    for idx in a.entries:
        term = 1
        for t in idx[1:]:
            term *= rows.get(t, 0)
        total += term
    tracer.counts["product.general_product.terms"] += total


def _partition_counts(tracer, args, result, exc, parent):
    if exc is None:
        tracer.counts["blocked.blocked_partitions.candidates"] += 2 ** (args[0].dim - 1)
        tracer.counts["blocked.blocked_partitions.found"] += len(result)


_RADIUS = FUNCTIONS.index("spectra.spectral_radius")


def _radius_iterations(tracer, args, result, exc, parent):
    if parent >= 0 and tracer.spans[parent][2] == _RADIUS:
        return  # a recursive call; the outer result already sums its iterations
    source = result if exc is None else exc
    tracer.counts["spectra.spectral_radius.iterations"] += getattr(source, "iterations", 0) or 0


COUNTERS = {"core.apply": _apply_terms, "product.general_product": _product_terms,
            "blocked.blocked_partitions": _partition_counts,
            "spectra.spectral_radius": _radius_iterations}


class Tracer:
    def __init__(self):
        self.job = -1
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth = [0] * len(FUNCTIONS)
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "triblock" or name.startswith("triblock."))]
        for name_id, name in enumerate(FUNCTIONS):
            module = sys.modules.get(f"triblock.{name.split('.')[0]}")
            if module is None:
                continue  # this workload never loads the module
            original = getattr(module, name.split(".")[1])
            wrapper = self._wrap(name_id, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name_id: int, original):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter
        count = COUNTERS.get(FUNCTIONS[name_id])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((self.job, parent, name_id))  # completed when the call ends
            stack.append(sid)
            depth[name_id] += 1
            outermost = depth[name_id] == 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                spans[sid] = (self.job, parent, name_id, start, clock(), 1, outermost)
                depth[name_id] -= 1
                stack.pop()
                if count:
                    count(self, args, None, exc, parent)
                raise
            spans[sid] = (self.job, parent, name_id, start, clock(), 0, outermost)
            depth[name_id] -= 1
            stack.pop()
            if count:
                count(self, args, result, None, parent)
            return result
        return wrapper

    def metrics(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, errors = Counter(), Counter()
        busy, own = defaultdict(float), defaultdict(float)
        for sid, (_, _, name_id, start, end, error, outermost) in enumerate(self.spans):
            name = FUNCTIONS[name_id]
            calls[name] += 1
            errors[name] += error
            own[name] += end - start - child[sid]
            if outermost:
                busy[name] += end - start
        values = {}
        for name in FUNCTIONS:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.busy_s"] = busy[name]
            values[f"{name}.self_s"] = own[name]
            if name in RAISING:
                values[f"{name}.errors"] = errors[name]
        for name in WORK_COUNTS:
            values[name] = self.counts[name]
        units = metric_units()
        return {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    def write(self, path) -> None:
        doc = {"functions": FUNCTIONS,
               "fields": ["job", "parent", "function", "start", "end", "error", "outermost"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
