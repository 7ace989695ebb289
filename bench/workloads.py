"""Seeded inputs, jobs and expected outcomes for the benchmark workloads.

A workload is a list of cases. Each case carries its job class, the raw
generated data (plain numbers, strings and NumPy arrays; the input digest
covers exactly these) and three functions:

* ``build(data)`` turns the data into library inputs through public
  constructors, parsers and serializers. This is the work ``setup_s``
  times.
* ``run(inputs)`` is one job: the chain of public ``triblock`` calls a
  caller would make. Every call goes through an attribute lookup on the
  package or module at call time, so the traced run sees it.
* ``expect(data)`` fixes the job's expected outcome before any job runs.
  It returns a checker ``(result, exc) -> None | reason``. References
  come from closed forms, from NumPy, from invariants recomputed here, or
  from documented domain errors.

Nothing in this module reuses library code to compute a reference: the
block predicates, cut intervals, power iteration, closures and SCC checks
below are independent transcriptions of the definitions in the library's
docstrings.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import string
import zlib
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import triblock as tb

Checker = Callable[[Any, "BaseException | None"], "str | None"]

KINDS = ("utb1", "utb2", "utb3", "ltb1", "ltb2", "ltb3", "diag")
# kinds whose valid partitions are exactly the subsets of the allowed cuts
CUT_KINDS = ("utb1", "utb3", "ltb1", "ltb3", "diag")
CYCLE_WEIGHTS = (1, 2, 3, 1, 5, 2)
CYCLE_SCALES = (1e-12, 1e-6, 1e3, 1e6)
ORACLE_RESTARTS, ORACLE_ITERS = 4, 60

# Job classes that fail at the seed commit, with the ROADMAP item that
# fixes each. They stay in the workloads and count in the failure totals.
# Nominal seconds one pass over a workload's cases takes on the reference
# machine (2 cores, seed commit, speed probes included). The runner plans
# round(seconds / this) passes, so a run does a fixed amount of work for a
# given --seconds unless the machine is slow enough to hit its deadline.
PASS_SECONDS = {"hypergraph_rho": 4.5, "dense_spectral": 3.4, "blocked_exact": 3.0,
                "cli_docs": 3.2}

KNOWN_DEFECTS = {
    "cycle6_scaled": "ROADMAP item 3: absolute tol and fixed +1 shift in the power iteration",
    "det_diag_overflow": "ROADMAP item 4: exact determinant overflows float() (bare OverflowError)",
    "det_diag_underflow": "ROADMAP item 4: nonzero determinant underflows to 0.0",
    "det_utb1_dim14": "ROADMAP item 2: exhaustive refinement raises DimensionTooLarge above dim 12",
}


@dataclass
class Case:
    cls: str
    data: dict
    build: Callable[[dict], Any]
    run: Callable[[Any], Any]
    expect: Callable[[dict], Checker]


# ------------------------------------------------------------------ checkers

def returns(check: Callable[[Any], "str | None"]) -> Checker:
    """Expect a normal return that passes ``check``."""
    def checker(result, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        return check(result)
    return checker


def raises(*types: type) -> Checker:
    """Expect one of the named exception types and nothing else."""
    def checker(result, exc):
        if exc is None:
            return f"returned {result!r:.80} instead of raising {types[0].__name__}"
        if not isinstance(exc, types):
            return f"raised {type(exc).__name__}: {exc}"
        return None
    return checker


def close(got: float, want: float, rel: float) -> "str | None":
    if not math.isfinite(got) or abs(got - want) > rel * max(abs(want), 1e-300):
        return f"got {got!r}, want {want!r} (rel {rel:g})"
    return None


def first_reason(*reasons: "str | None") -> "str | None":
    return next((r for r in reasons if r), None)


# ----------------------------------------------------- independent references

def coo(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based index rows and values of the nonzeros of a dense array."""
    nz = np.nonzero(arr)
    return np.stack(nz, axis=1) + 1, arr[nz]


def dense_of(tensor) -> np.ndarray:
    """Dense array of a library tensor, read straight from its entries."""
    out = np.zeros((tensor.dim,) * tensor.order)
    if tensor.entries:
        idx = np.array(list(tensor.entries.keys())) - 1
        out[tuple(idx.T)] = list(tensor.entries.values())
    return out


def dense_of_doc(doc: dict) -> np.ndarray:
    """Dense array of a tensor wire document."""
    out = np.zeros((doc["dim"],) * doc["order"])
    if doc["entries"]:
        idx = np.array([e["i"] for e in doc["entries"]]) - 1
        out[tuple(idx.T)] = [e["v"] for e in doc["entries"]]
    return out


def make_tensor(order: int, dim: int, idx: np.ndarray, vals: np.ndarray):
    """Build through the public constructor from 1-based index rows and values."""
    return tb.new_tensor(order, dim, zip(map(tuple, idx.tolist()), vals.tolist()))


def prefix_sums(parts) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(parts)])


def forbidden(idx: np.ndarray, parts, kind: str) -> np.ndarray:
    """Which entries fall in the kind's vanishing region, by definition."""
    s = prefix_sums(parts)
    r = len(parts)
    j = np.searchsorted(s, idx[:, 0], side="left")  # S_{j-1} < row <= S_j
    lo = idx[:, 1:].min(axis=1)
    hi = idx[:, 1:].max(axis=1)
    below, top = s[j - 1], s[j]
    if kind == "utb1":
        return (j >= 2) & (lo <= below)
    if kind == "utb2":
        return (j >= 2) & (lo <= below) & (hi <= top)
    if kind == "utb3":
        return (j >= 2) & (hi <= below)
    if kind == "ltb1":
        return (j <= r - 1) & (hi > top)
    if kind == "ltb2":
        return (j <= r - 1) & (hi > top) & (lo > below)
    if kind == "ltb3":
        return (j <= r - 1) & (lo > top)
    return (lo <= below) | (hi > top)


def blocked(idx: np.ndarray, parts, kind: str) -> bool:
    return not forbidden(idx, parts, kind).any()


def all_positions(order: int, n: int) -> np.ndarray:
    return np.indices((n,) * order).reshape(order, -1).T + 1


def allowed_positions(order: int, n: int, parts, kind: str) -> np.ndarray:
    pos = all_positions(order, n)
    return pos[~forbidden(pos, parts, kind)]


def expected_partitions(idx: np.ndarray, n: int, kind: str) -> list[tuple[int, ...]]:
    """Valid partitions from cut intervals: every subset of the allowed cuts.

    An entry with row ``row`` and trailing min/max ``lo``/``hi`` rules out
    the cuts in one interval per kind (two for ``diag``); a partition is
    valid exactly when none of its inner boundaries is ruled out.
    """
    row, lo, hi = idx[:, 0], idx[:, 1:].min(axis=1), idx[:, 1:].max(axis=1)
    intervals = {"utb1": [(lo, row - 1)], "utb3": [(hi, row - 1)],
                 "ltb1": [(row, hi - 1)], "ltb3": [(row, lo - 1)],
                 "diag": [(lo, row - 1), (row, hi - 1)]}[kind]
    ruled = np.zeros(n + 1, dtype=int)  # difference array over cut positions
    for a, b in intervals:
        keep = a <= b
        np.add.at(ruled, a[keep], 1)
        np.add.at(ruled, b[keep] + 1, -1)
    banned = np.cumsum(ruled)
    cuts = [c for c in range(1, n) if banned[c] == 0]
    least = 0 if kind == "diag" else 1
    out = []
    for size in range(least, len(cuts) + 1):
        for chosen in itertools.combinations(cuts, size):
            bounds = (0,) + chosen + (n,)
            out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return sorted(out)


def nqz_rho(idx: np.ndarray, vals: np.ndarray, n: int) -> float:
    """Ng-Qi-Zhou power iteration with a unit shift, to relative 1e-13."""
    m = idx.shape[1]
    rows, feet = idx[:, 0] - 1, idx[:, 1:] - 1
    x = np.ones(n)
    for _ in range(200_000):
        y = np.bincount(rows, vals * np.prod(x[feet], axis=1), minlength=n) + x ** (m - 1)
        ratios = y / x ** (m - 1)
        lower, upper = ratios.min(), ratios.max()
        if upper - lower <= 1e-13 * upper:
            return float((lower + upper) / 2 - 1.0)
        x = y ** (1.0 / (m - 1))
        x = x / x.max()
    raise RuntimeError("reference power iteration did not converge")


def bracket_reason(idx: np.ndarray, vals: np.ndarray, n: int, rho: float,
                   x: np.ndarray) -> "str | None":
    """Collatz-Wielandt bracket at the returned eigenvector must pin rho."""
    m = idx.shape[1]
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.all(x > 0):
        return "eigenvector is not a positive vector"
    y = np.bincount(idx[:, 0] - 1, vals * np.prod(x[idx[:, 1:] - 1], axis=1), minlength=n)
    ratios = y / x ** (m - 1)
    slack = 1e-8 * max(abs(rho), 1e-300)
    if not ratios.min() - slack <= rho <= ratios.max() + slack \
            or ratios.max() - ratios.min() > slack:
        return f"bracket [{ratios.min()!r}, {ratios.max()!r}] does not pin rho={rho!r}"
    return None


def closure(idx: np.ndarray, n: int, seed: int) -> set[int]:
    """Smallest superset of {seed} holding every row whose trailing indices it holds."""
    inside = {seed}
    pending = [(int(r), set(map(int, feet))) for r, *feet in idx.tolist()]
    grew = True
    while grew:
        grew = False
        rest = []
        for row, feet in pending:
            if row in inside:
                continue
            if feet <= inside:
                inside.add(row)
                grew = True
            else:
                rest.append((row, feet))
        pending = rest
    return inside


def irreducible(idx: np.ndarray, n: int) -> bool:
    return all(len(closure(idx, n, s)) == n for s in range(1, n + 1))


def strongly_connected(idx: np.ndarray, n: int) -> bool:
    """Row i reaches every trailing index it mentions; all nodes reach all."""
    succ = [set() for _ in range(n + 1)]
    pred = [set() for _ in range(n + 1)]
    for row, *feet in idx.tolist():
        for f in feet:
            succ[row].add(f)
            pred[f].add(row)

    def reach(adj):
        seen, todo = {1}, [1]
        while todo:
            for w in adj[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
        return len(seen) == n
    return n == 1 or (reach(succ) and reach(pred))


def relabel(idx: np.ndarray, image) -> np.ndarray:
    """Apply i -> image[i-1] to every index component."""
    lookup = np.concatenate([[0], np.asarray(image)])
    return lookup[idx]


def restrict(idx: np.ndarray, vals: np.ndarray, members) -> tuple[np.ndarray, np.ndarray]:
    """Principal subtensor data on ``members``, relabelled 1..k in sorted order."""
    members = np.sort(np.asarray(list(members)))
    keep = np.isin(idx, members).all(axis=1)
    lookup = np.zeros(idx.max() + 1, dtype=int)
    lookup[members] = np.arange(1, len(members) + 1)
    return lookup[idx[keep]], vals[keep]


def einsum_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense general product: c[i, a_1..a_{m-1}] = sum a[i, j..] * prod b[j_t, a_t]."""
    letters = iter(string.ascii_letters)
    i = next(letters)
    feet = [next(letters) for _ in range(a.ndim - 1)]
    alphas = [[next(letters) for _ in range(b.ndim - 1)] for _ in feet]
    spec = ",".join([i + "".join(feet)] + [f + "".join(al) for f, al in zip(feet, alphas)])
    out = i + "".join("".join(al) for al in alphas)
    return np.einsum(f"{spec}->{out}", a, *([b] * len(feet)), optimize=True)


def log_det_closed_form(diag, order: int) -> tuple[int, float]:
    """Sign and log|det| of a tensor triangular over singletons: prod d_i^((m-1)^(n-1))."""
    exponent = (order - 1) ** (len(diag) - 1)
    sign = 1
    for d in diag:
        if d < 0 and exponent % 2:
            sign = -sign
    return sign, exponent * math.fsum(math.log(abs(d)) for d in diag)


def representable(log_abs: float) -> bool:
    """Does a normal double hold a value of this magnitude?"""
    return math.log(sys.float_info.min) < log_abs < math.log(sys.float_info.max)


# ----------------------------------------------------------------- generators

def random_parts(rng, n: int, r: int) -> tuple[int, ...]:
    cuts = np.sort(rng.choice(np.arange(1, n), r - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    return tuple(int(v) for v in np.diff(bounds))


def random_values(rng, size: int) -> np.ndarray:
    return rng.choice(np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]), size)


def sample_rows(rng, pos: np.ndarray, density: float) -> np.ndarray:
    return pos[rng.random(len(pos)) < density]


def hypergraph_edges(rng, n: int, comps: int) -> tuple[np.ndarray, list[list[int]]]:
    """3-uniform edges, about two per vertex, on ``comps`` connected vertex groups.

    Each group is chained together first (every new vertex joins an
    earlier one), then filled with random triples up to two edges per
    vertex, so every row of the adjacency tensor holds about 12 nonzeros.
    """
    perm = rng.permutation(n) + 1
    sizes = np.full(comps, n // comps)
    sizes[: n % comps] += 1
    edges, groups, start = [], [], 0
    for size in sizes:
        verts = perm[start:start + size]
        start += size
        groups.append(sorted(int(v) for v in verts))
        chosen = set()
        for t in range(1, size, 2):
            if t + 1 < size:
                tri = (verts[t], verts[t + 1], verts[rng.integers(0, t)])
            else:
                a, b = rng.choice(t, 2, replace=False)
                tri = (verts[t], verts[a], verts[b])
            chosen.add(tuple(sorted(int(v) for v in tri)))
        while len(chosen) < 2 * size:
            tri = rng.choice(verts, 3, replace=False)
            chosen.add(tuple(sorted(int(v) for v in tri)))
        edges.extend(sorted(chosen))
    return np.array(edges), sorted(groups)


def adjacency_coo(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    perms = np.array(list(itertools.permutations(range(3))))
    idx = edges[:, perms].reshape(-1, 3)
    return idx, np.full(len(idx), 0.5)


# ---------------------------------------------------------- hypergraph_rho

def _hyper_build(data):
    return tb.Hypergraph.from_edge_lists(3, data["n"], data["edges"].tolist())


def hypergraph_pipeline(graph):
    """The ``hypergraph-rho`` verb through the API: whole and per-component radii."""
    adjacency = tb.adjacency_tensor(graph)
    whole = tb.spectral_radius(adjacency)
    comps = tb.connected_components(graph)
    rhos = [tb.spectral_radius(tb.principal_subtensor(adjacency, c)).rho for c in comps]
    return whole, comps, rhos


def _hyper_expect(data):
    idx, vals = adjacency_coo(data["edges"])
    groups = data["groups"]
    ref = [nqz_rho(*restrict(idx, vals, g), len(g)) for g in groups]

    def check(out):
        whole, comps, rhos = out
        if [sorted(c) for c in comps] != groups:
            return "connected components differ from the generated groups"
        reason = first_reason(*(close(g, w, 1e-8) for g, w in zip(rhos, ref)))
        reason = reason or close(whole.rho, max(ref), 1e-8)
        if not reason and len(groups) == 1:
            reason = bracket_reason(idx, vals, data["n"], whole.rho, whole.eigvec)
        return reason
    return returns(check)


def hypergraph_cases(rng) -> list[Case]:
    mix = [(60, 1, 8), (60, 6, 8), (200, 1, 3), (200, 20, 3), (1000, 1, 1), (1000, 5, 1)]
    cases = []
    for n, comps, count in mix:
        cls = f"hyper_n{n}_{'conn' if comps == 1 else 'split'}"
        for _ in range(count):
            edges, groups = hypergraph_edges(rng, n, comps)
            cases.append(Case(cls, {"n": n, "edges": edges, "groups": groups},
                              _hyper_build, hypergraph_pipeline, _hyper_expect))
    return cases


# ------------------------------------------------------------ dense_spectral

def _coo_build(data):
    return make_tensor(data["order"], data["dim"], data["idx"], data["vals"])


def _rho_expect(data):
    idx, vals, n = data["idx"], data["vals"], data["dim"]
    want = nqz_rho(idx, vals, n)
    return returns(lambda r: close(r.rho, want, 1e-8)
                   or bracket_reason(idx, vals, n, r.rho, r.eigvec))


def _cycle_expect(data):
    want = data["scale"] * 60 ** (1 / 6)
    return returns(lambda r: close(r.rho, want, 1e-8))


def _mtensor_expect(data):
    b_idx, b_vals = coo(data["b"])
    rho_b = nqz_rho(b_idx, b_vals, data["dim"])
    s, dmin = data["s"], float(np.einsum("iii->i", data["b"]).min())
    nonsingular = s > rho_b

    def check(rep):
        if rep["z"] is not True or rep["m"] != nonsingular or rep["nonsingular_m"] != nonsingular:
            return f"classification {rep} disagrees with s={s!r}, rho(B)={rho_b!r}"
        return close(rep["s"], s - dmin, 1e-12) or close(rep["rho"], rho_b - dmin, 1e-8)
    return returns(check)


def _pair_build(data):
    return (make_tensor(data["a"].ndim, len(data["a"]), *coo(data["a"])),
            make_tensor(data["b"].ndim, len(data["b"]), *coo(data["b"])))


def _product_expect(data):
    want = einsum_product(data["a"], data["b"])

    def check(c):
        if (c.order, c.dim) != (want.ndim, len(want)) or not np.array_equal(dense_of(c), want):
            return "product differs from the einsum reference"
        return None
    return returns(check)


def _oracle_run(tensor):
    return tb.singularity_oracle(tensor, restarts=ORACLE_RESTARTS, iters=ORACLE_ITERS)


def _oracle_expect(data):
    arr = data["dense"]
    # min over the unit sphere of sum d_i^2 |x_i|^4 is (sum d_i^-2)^(-1/2)
    floor = float(np.sum(np.einsum("iii->i", arr) ** -2.0) ** -0.5) if data["diagonal"] else None

    def check(rep):
        w = np.asarray(rep.witness)
        y = np.einsum("ijk,j,k->i", arr, w, w)
        reason = close(float(np.linalg.norm(w)), 1.0, 1e-9) \
            or close(rep.min_norm, float(np.linalg.norm(y)), 1e-6)
        if not reason and floor is not None \
                and not floor * (1 - 1e-9) <= rep.min_norm <= floor * (1 + 1e-3):
            reason = f"min_norm {rep.min_norm!r} outside [{floor!r}, {floor * 1.001!r}]"
        return reason
    return returns(check)


def dense_cases(rng) -> list[Case]:
    cases = []
    # nine dim-20 radii put one job class around the median of a pass
    for dim, count in ((10, 6), (20, 9), (40, 5)):
        for _ in range(count):
            idx, vals = coo(rng.uniform(0.01, 1.0, (dim,) * 3))
            cases.append(Case(f"rho_dense_d{dim}",
                              {"order": 3, "dim": dim, "idx": idx, "vals": vals},
                              _coo_build, lambda t: tb.spectral_radius(t), _rho_expect))
    for dim, count in ((10, 4), (20, 3)):
        for t in range(count):
            b = rng.uniform(0.01, 1.0, (dim,) * 3)
            s = nqz_rho(*coo(b), dim) * (1.25 if t % 2 == 0 else 0.8)
            z = -b
            diag = np.arange(dim)
            z[diag, diag, diag] = s - b[diag, diag, diag]
            idx, vals = coo(z)
            cases.append(Case(f"mtensor_d{dim}",
                              {"order": 3, "dim": dim, "idx": idx, "vals": vals, "b": b, "s": s},
                              _coo_build, lambda t: tb.m_tensor_report(t), _mtensor_expect))
    for dim, count in ((6, 1), (8, 1)):
        for _ in range(count):
            data = {"a": rng.integers(1, 10, (dim,) * 3).astype(float),
                    "b": rng.integers(1, 10, (dim,) * 3).astype(float)}
            cases.append(Case(f"product_d{dim}", data, _pair_build,
                              lambda ab: tb.general_product(*ab), _product_expect))
    for dim in (3, 5, 6):
        arr = np.zeros((dim,) * 3)
        diag = np.arange(dim)
        arr[diag, diag, diag] = rng.uniform(0.5, 2.0, dim)
        cases.append(Case("oracle_diag", _oracle_data(arr, True), _coo_build, _oracle_run,
                          _oracle_expect))
    arr = rng.uniform(-1.0, 1.0, (4, 4, 4))
    cases.append(Case("oracle_dense", _oracle_data(arr, False), _coo_build, _oracle_run,
                      _oracle_expect))
    for scale in (1.0,) + CYCLE_SCALES:
        idx = np.array([[i + 1, (i + 1) % 6 + 1, (i + 1) % 6 + 1] for i in range(6)])
        vals = scale * np.array(CYCLE_WEIGHTS, dtype=float)
        cases.append(Case("cycle6_unit" if scale == 1.0 else "cycle6_scaled",
                          {"order": 3, "dim": 6, "idx": idx, "vals": vals, "scale": scale},
                          _coo_build, lambda t: tb.spectral_radius(t), _cycle_expect))
    return cases


def _oracle_data(arr: np.ndarray, diagonal: bool) -> dict:
    idx, vals = coo(arr)
    return {"order": 3, "dim": len(arr), "idx": idx, "vals": vals, "dense": arr,
            "diagonal": diagonal}


# ------------------------------------------------------------- blocked_exact

def _blocked_build(data):
    tensor = make_tensor(data["order"], data["dim"], data["idx"], data["vals"])
    return tensor, tb.Partition(data["parts"]), tb.BlockKind.from_token(data["kind"])


def _is_blocked_run(inp):
    tensor, partition, _ = inp
    return tuple(tb.is_blocked(tensor, partition, tb.BlockKind.from_token(k)) for k in KINDS)


def _is_blocked_expect(data):
    want = tuple(blocked(data["idx"], data["parts"], k) for k in KINDS)
    return returns(lambda got: None if got == want else f"got {got}, want {want}")


def _partitions_run(inp):
    tensor, _, kind = inp
    return tb.blocked_partitions(tensor, kind)


def _partitions_expect(data):
    want = expected_partitions(data["idx"], data["dim"], data["kind"])
    return returns(lambda got: None if [p.parts for p in got] == want
                   else f"{len(got)} partitions, want {len(want)}")


def _det_run(inp):
    return tb.det_blocked(*inp)


def _det_expect(data):
    if "want" in data:
        return returns(lambda got: close(got, data["want"], 1e-12))
    sign, log_abs = log_det_closed_form(data["diag"], data["order"])
    if not representable(log_abs):
        return raises(tb.errors.TriblockError)
    return returns(lambda got: close(got, sign * math.exp(log_abs), 1e-9))


def _spectrum_run(inp):
    return tb.spectrum_blocked(*inp)


def _spectrum_expect(data):
    lift = (data["order"] - 1) ** (data["dim"] - 1)
    want = Counter()
    for d in data["diag"]:
        want[d] += lift

    def check(spec):
        if spec.total_degree != data["dim"] * lift or spec.as_multiset() != dict(want):
            return "factored spectrum differs from the diagonal with lifted multiplicities"
        return None
    return returns(check)


def _product_blocked_build(data):
    a, b = _pair_build(data)
    return a, b, tb.Partition(data["parts"])


def _product_blocked_run(inp):
    a, b, partition = inp
    c = tb.general_product(a, b)
    return c, tb.diagonal_blocks(c, partition)


def _product_blocked_expect(data):
    want = einsum_product(data["a"], data["b"])
    s = prefix_sums(data["parts"])
    block_refs = []
    for lo, hi in zip(s, s[1:]):
        sl = (slice(lo, hi),)
        block_refs.append(einsum_product(data["a"][sl * data["a"].ndim],
                                         data["b"][sl * data["b"].ndim]))

    def check(out):
        c, blocks = out
        got = dense_of(c)
        if not np.array_equal(got, want):
            return "product differs from the einsum reference"
        if not blocked(coo(got)[0], data["parts"], data["kind"]):
            return "product lost the factors' block structure"
        if len(blocks) != len(block_refs) or not all(
                np.array_equal(dense_of(b), r) for b, r in zip(blocks, block_refs)):
            return "diagonal blocks of the product differ from products of the blocks"
        return None
    return returns(check)


def _inverse_build(data):
    return make_tensor(data["order"], data["dim"], data["idx"], data["vals"]), data["k"]


def _left_inverse_run(inp):
    tensor, k = inp
    inverse = tb.left_k_inverse(tensor, k)
    return inverse, tb.verify_inverse(inverse, tensor, "left")


def _right_inverse_run(inp):
    tensor, k = inp
    inverse = tb.right_k_inverse(tensor, k)
    return inverse, tb.verify_inverse(inverse, tensor, "right")


def _inverse_expect(data):
    n, k = data["dim"], data["k"]
    inv = np.linalg.inv(data["matrix"])
    if data["side"] == "left":  # unit tensor of order k times P^-1: prod_t inv[i, a_t]
        want = inv.reshape((n,) + (1,) * (k - 2) + (n,))
        for axis in range(1, k - 1):
            want = want * inv.reshape((n,) + (1,) * (axis - 1) + (n,) + (1,) * (k - 1 - axis))
    else:  # P^-1 times the unit tensor: inv[i, j] at (i, j, ..., j)
        want = np.zeros((n,) * k)
        cols = np.arange(n)
        for i in range(n):
            want[(np.full(n, i),) + (cols,) * (k - 1)] = inv[i]

    def check(out):
        inverse, verified = out
        if verified is not True:
            return "verify_inverse rejected the library's own inverse"
        got = dense_of(inverse)
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-9,
                                                      atol=1e-12 * np.abs(want).max()):
            return "inverse differs from the NumPy reference"
        return None
    return returns(check)


def _nf3_run(tensor):
    return tb.normal_form_3rd(tensor)


def _nf3_expect(data):
    idx, n = data["idx"], data["dim"]

    def check(nf):
        moved = relabel(idx, nf.sigma.image)
        if nf.kind is not tb.BlockKind.UTB3 or not blocked(moved, nf.partition.parts, "utb3"):
            return "normal form is not third-type upper triangular"
        s = prefix_sums(nf.partition.parts)
        for lo, hi in zip(s, s[1:]):
            sub, _ = restrict(moved, data["vals"], range(lo + 1, hi + 1))
            if not irreducible(sub, hi - lo):
                return f"diagonal block {lo + 1}..{hi} is reducible"
        return None
    return returns(check)


def _reducing_expect(data):
    idx, n = data["idx"], data["dim"]
    if data["irreducible"]:
        return returns(lambda got: None if got is None else f"found {sorted(got)} in an irreducible tensor")

    def check(got):
        if got is None or not 0 < len(got) < n:
            return "no proper reducing set returned for a reducible tensor"
        inside = np.isin(idx, list(got))
        if (inside[:, 0] & ~inside[:, 1:].any(axis=1)).any():
            return f"{sorted(got)} does not strongly reduce the tensor"
        return None
    return returns(check)


def pattern_rng(*slot) -> np.random.Generator:
    """Generator of one slot's sparsity pattern, the same for every seed.

    The partition search behind ``blocked_partitions``, ``det_blocked`` and
    ``spectrum_blocked`` costs up to twice as much on one random pattern
    as on another of the same density, so those slots draw their pattern
    from here and only their values from the seed.
    """
    return np.random.default_rng(zlib.crc32(repr(slot).encode()))


def _singletons_triangular(rng, order, n, claim_parts, claim_kind, diag, density=0.4,
                           pattern=None):
    """Tensor triangular over singletons that also carries the claimed structure.

    The off-diagonal pattern is drawn from ``pattern`` (default ``rng``).
    """
    base = "ltb1" if claim_kind.startswith("ltb") else "utb1"
    pos = allowed_positions(order, n, (1,) * n, base)
    pos = pos[~forbidden(pos, claim_parts, claim_kind)]
    off = pos[(pos != pos[:, :1]).any(axis=1)]
    off = sample_rows(rng if pattern is None else pattern, off, density)
    diag_idx = np.repeat(np.arange(1, n + 1)[:, None], order, axis=1)
    idx = np.concatenate([diag_idx, off])
    vals = np.concatenate([np.asarray(diag, dtype=float), random_values(rng, len(off))])
    return idx, vals


def _dyadic_diag(rng, order, n):
    """Signed diagonal values whose lifted product stays inside double range."""
    exponent = (order - 1) ** (n - 1)
    step = 2.0 ** -(math.ceil(math.log2(exponent)) + 2)
    return [float(rng.choice([-1, 1]) * (1 + step * rng.integers(0, 4))) for _ in range(n)]


def _irreducible_blocks(rng, order, parts, density):
    """UTB3 tensor over ``parts`` whose diagonal blocks each contain a full cycle."""
    n = sum(parts)
    pos = allowed_positions(order, n, parts, "utb3")
    rows = [sample_rows(rng, pos, density)]
    for lo, hi in zip(prefix_sums(parts), prefix_sums(parts)[1:]):
        block = np.arange(lo + 1, hi + 1)
        nxt = np.roll(block, -1)
        rows.append(np.column_stack([block] + [nxt] * (order - 1)))
    idx = np.unique(np.concatenate(rows), axis=0)
    return idx, random_values(rng, len(idx))


def blocked_cases(rng) -> list[Case]:
    cases = []

    def add(cls, data, build, run, expect):
        cases.append(Case(cls, data, build, run, expect))

    # Seeds draw values and sparsity patterns; sizes, orders, kinds and the
    # number of parts are fixed per slot so a pass costs the same for every
    # seed, and so are the patterns of the partition-search slots (pattern_rng).
    # Twenty order-4 dim-12 slots of one shape put a block of jobs of one cost
    # around the median of a pass.
    slots = [(n, order, KINDS[slot % len(KINDS)], 2 + slot % 3) for slot, (n, order)
             in enumerate(itertools.product((8, 12), (2, 3, 4)))]
    for n, order, kind, r in slots + [(12, 4, "utb1", (4, 4, 4))] * 20:
        parts = r if isinstance(r, tuple) else random_parts(rng, n, r)
        idx = sample_rows(rng, allowed_positions(order, n, parts, kind), 0.3)
        add("is_blocked_kinds", {"order": order, "dim": n, "idx": idx,
                                 "vals": random_values(rng, len(idx)), "parts": parts,
                                 "kind": kind},
            _blocked_build, _is_blocked_run, _is_blocked_expect)
    for n, kind, parts in ((8, "utb1", (3, 2, 3)), (8, "ltb3", (5, 3)),
                           (12, "diag", (4, 5, 3)), (12, "utb3", (3, 3, 4, 2))):
        idx = sample_rows(pattern_rng("blocked_partitions", n, kind, parts),
                          allowed_positions(3, n, parts, kind), 0.5)
        add("blocked_partitions", {"order": 3, "dim": n, "idx": idx,
                                   "vals": random_values(rng, len(idx)), "parts": parts,
                                   "kind": kind},
            _blocked_build, _partitions_run, _partitions_expect)
    for cls, run, expect, slots in (
            ("det_nested", _det_run, _det_expect,
             ((8, 2, (1, 7), "utb1", 0.4), (8, 3, (6, 2), "ltb2", 0.4),
              (8, 4, (2, 6), "diag", 0.4), (12, 2, (1, 11), "utb2", 0.4),
              (12, 3, (2, 10), "ltb1", 0.4), (12, 3, (1, 11), "utb1", 0.2),
              (12, 4, (10, 2), "utb1", 0.07))),
            ("spectrum_nested", _spectrum_run, _spectrum_expect,
             ((8, 2, (7, 1), "ltb1", 0.4), (8, 3, (1, 7), "utb2", 0.4),
              (8, 4, (6, 2), "ltb2", 0.4), (12, 2, (11, 1), "diag", 0.4),
              (12, 3, (2, 10), "ltb1", 0.4), (12, 3, (11, 1), "ltb1", 0.2),
              (12, 4, (10, 2), "utb1", 0.07)))):
        for n, order, parts, kind, density in slots:
            diag = _dyadic_diag(rng, order, n)
            idx, vals = _singletons_triangular(rng, order, n, parts, kind, diag, density,
                                               pattern_rng(cls, n, order, parts, kind))
            add(cls, {"order": order, "dim": n, "idx": idx, "vals": vals, "parts": parts,
                      "kind": kind, "diag": diag}, _blocked_build, run, expect)
    for orders, kind, parts in (((3, 3), "utb1", (3, 3, 2)), ((2, 3), "ltb2", (2, 3, 3)),
                                ((3, 2), "diag", (4, 4, 4)), ((2, 3), "utb2", (5, 4, 3))):
        n = sum(parts)
        pair = {}
        for name, order in zip("ab", orders):
            pos = allowed_positions(order, n, parts, kind)
            arr = np.zeros((n,) * order)
            keep = sample_rows(rng, pos, 0.35 if order == 3 else 0.6) - 1
            arr[tuple(keep.T)] = rng.integers(1, 4, len(keep))
            pair[name] = arr
        add("product_blocked", {**pair, "parts": parts, "kind": kind},
            _product_blocked_build, _product_blocked_run, _product_blocked_expect)
    for side, shapes in (("left", ((2, 2, (3, 3, 2)), (3, 3, (2, 4, 2)), (4, 2, (4, 4, 4)),
                                   (2, 3, (5, 4, 3)))),
                         ("right", ((3, 2, (3, 3, 2)), (2, 3, (2, 4, 2)), (3, 2, (4, 4, 4)),
                                    (2, 2, (5, 4, 3))))):
        for order, k, parts in shapes:
            n = sum(parts)
            mat = np.zeros((n, n))
            keep = allowed_positions(2, n, parts, "utb1") - 1
            mat[tuple(keep.T)] = rng.integers(-3, 4, len(keep))
            mat[np.arange(n), np.arange(n)] = 4 * n + rng.integers(0, 5, n)
            if side == "left":  # row diagonal: a[i, j, ..., j] = P[i, j]
                rows, cols = np.nonzero(mat)
                idx = np.column_stack([rows] + [cols] * (order - 1)) + 1
                vals = mat[rows, cols]
            else:  # unit tensor times Q: a[i, j_1..] = prod_t Q[i, j_t]
                full = mat.reshape((n,) + (1,) * (order - 2) + (n,))
                for axis in range(1, order - 1):
                    full = full * mat.reshape((n,) + (1,) * (axis - 1) + (n,)
                                              + (1,) * (order - 1 - axis))
                idx, vals = coo(full)
                if (order - 1) % 2 == 0:  # even roots lose the row sign; canonical row is positive
                    first = mat[np.arange(n), (mat != 0).argmax(axis=1)]
                    mat = mat * np.sign(first)[:, None]
            add(f"{side}_inverse", {"order": order, "dim": n, "idx": idx, "vals": vals,
                                    "k": k, "side": side, "matrix": mat},
                _inverse_build, _right_inverse_run if side == "right" else _left_inverse_run,
                _inverse_expect)
    for n, order, r in ((8, 3, 3), (12, 3, 4), (12, 2, 3)):
        parts = random_parts(rng, n, r)
        idx, vals = _irreducible_blocks(rng, order, parts, 0.04 if order == 3 else 0.3)
        idx = relabel(idx, rng.permutation(n) + 1)
        add("normal_form_3rd", {"order": order, "dim": n, "idx": idx, "vals": vals},
            _coo_build, _nf3_run, _nf3_expect)
    for n, irreducible_case in ((12, False), (12, True)):
        parts = (n,) if irreducible_case else random_parts(rng, n, 2)
        idx, vals = _irreducible_blocks(rng, 3, parts, 0.1)
        idx = relabel(idx, rng.permutation(n) + 1)
        add("find_reducing_set", {"order": 3, "dim": n, "idx": idx, "vals": vals,
                                  "irreducible": irreducible_case},
            _coo_build, lambda t: tb.find_reducing_set(t), _reducing_expect)
    # documented domain errors
    idx = relabel(np.array([[1, 2, 2], [2, 3, 3], [3, 1, 2]]), rng.permutation(3) + 1)
    add("nf3_unavailable", {"order": 3, "dim": 3, "idx": idx, "vals": np.ones(3)},
        _coo_build, _nf3_run, lambda data: raises(tb.errors.NormalFormUnavailable))
    parts = random_parts(rng, 8, 2)
    idx = sample_rows(rng, allowed_positions(3, 8, parts, "utb3"), 0.3)
    add("det_third_type", {"order": 3, "dim": 8, "idx": idx, "vals": random_values(rng, len(idx)),
                           "parts": parts, "kind": "utb3"},
        _blocked_build, _det_run, lambda data: raises(tb.errors.ThirdTypeUnsupported))
    # known defects at the seed commit
    for cls, value in (("det_diag_overflow", 2.0), ("det_diag_underflow", 0.5)):
        parts = random_parts(rng, 10, 3)
        idx = np.repeat(np.arange(1, 11)[:, None], 3, axis=1)
        add(cls, {"order": 3, "dim": 10, "idx": idx, "vals": np.full(10, value),
                  "parts": parts, "kind": "diag", "diag": [value] * 10},
            _blocked_build, _det_run, _det_expect)
    upper = np.triu(rng.integers(-3, 4, (14, 14)), 1) + np.eye(14)
    idx, vals = coo(upper)
    add("det_utb1_dim14", {"order": 2, "dim": 14, "idx": idx, "vals": vals,
                           "parts": (1, 13), "kind": "utb1", "want": 1.0},
        _blocked_build, _det_run, _det_expect)
    return cases


# ------------------------------------------------------------------ cli_docs

FIXTURES = ("ex24.json", "ex31.json", "ex61.json")


def _cli_build(data):
    """Write the job's documents with the public serializer; return its argv.

    ``@name`` tokens are input documents and ``>name`` tokens output paths,
    both inside the work directory.
    """
    import triblock.tensorio as tio
    workdir = Path(data["workdir"])
    argv = []
    for token in data["argv"]:
        if token.startswith("@"):
            name = token[1:]
            path = workdir / name
            if not path.exists():
                doc = data["docs"][name]
                text = doc if isinstance(doc, str) else tio.dumps_tensor(
                    make_tensor(doc["order"], doc["dim"], doc["idx"], doc["vals"]))
                path.write_text(text)
            token = str(path)
        elif token.startswith(">"):
            token = str(workdir / token[1:])
        argv.append(token)
    return argv


def cli_job(argv):
    """One in-process CLI call; stdout is captured as the verb's document."""
    import contextlib
    import io
    import triblock.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = triblock.cli.run(argv)
    return code, out.getvalue()


def _cli_expect(data):
    def checker(result, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        code, text = result
        try:
            doc = json.loads(text)
        except ValueError:
            return f"stdout is not one JSON document: {text[:80]!r}"
        return data["expect"](data, code, doc)
    return checker


def _doc(arr: np.ndarray) -> dict:
    idx, vals = coo(arr)
    return {"order": arr.ndim, "dim": len(arr), "idx": idx, "vals": vals}


def _ok(check):
    """A CLI expectation: exit 0 and a document that passes ``check``."""
    return lambda data, code, doc: check(doc) if code == 0 else f"exit {code}: {str(doc)[:120]}"


def _result_is(want):
    return _ok(lambda doc: None if doc == {"result": want} else f"{doc}, want result {want}")


def _error_is(name):
    return lambda data, code, doc: None if code == 1 and doc.get("error") == name \
        else f"exit {code}: {str(doc)[:120]}, want error {name}"


def _spectrum_is(diag, order):
    lift = (order - 1) ** (len(diag) - 1)
    want = Counter()
    for d in diag:
        want[d] += lift

    def check(doc):
        got = Counter()
        for item in doc["items"]:
            for ev in item["eigs"]:
                got[ev] += item["exp"]
        if got != want or doc["degree"] != len(diag) * lift:
            return "factored spectrum differs from the diagonal with lifted multiplicities"
        return None
    return _ok(check)


def _blocks_are(arr, parts):
    s = prefix_sums(parts)
    wants = [arr[(slice(lo, hi),) * arr.ndim] for lo, hi in zip(s, s[1:])]
    return _ok(lambda doc: None if len(doc["blocks"]) == len(wants) and all(
        np.array_equal(dense_of_doc(b), w) for b, w in zip(doc["blocks"], wants))
        else "blocks differ from slices of the document")


def _product_is(a, b):
    want = einsum_product(a, b)
    return _ok(lambda doc: None if np.array_equal(dense_of_doc(doc), want)
               else "product differs from the einsum reference")


def _normal_form_is(idx, kind):
    """Re-verify a normal form document: structure, and each block's irreducibility."""
    block_ok = strongly_connected if kind == "utb2" else irreducible

    def check(doc):
        moved = relabel(idx, doc["sigma"])
        if doc["kind"] != kind or not blocked(moved, doc["partition"], kind):
            return f"normal form is not {kind} upper triangular"
        s = prefix_sums(doc["partition"])
        for block, lo, hi in zip(doc["blocks"], s, s[1:]):
            if block["dim"] != hi - lo or not block_ok(coo(dense_of_doc(block))[0], hi - lo):
                return f"diagonal block {lo + 1}..{hi} is reducible"
        return None
    return _ok(check)


def cli_cases(rng, workdir: Path, fixtures: Path) -> list[Case]:
    """In-process CLI calls on documents written during setup.

    Only verbs that never reach ``apply`` run here, so this workload
    bypasses the numeric kernel and isolates parsing and serializing.
    """
    cases = []

    def add(cls, argv, docs, expect):
        data = {"argv": argv, "docs": docs, "workdir": str(workdir), "expect": expect}
        cases.append(Case(cls, data, _cli_build, cli_job, _cli_expect))

    dense40 = rng.uniform(0.01, 1.0, (40,) * 3)
    blocked40 = dense40.copy()
    blocked40[20:, :20, :] = 0.0
    blocked40[20:, :, :20] = 0.0  # utb1 over (20, 20)
    docs = {"dense40.json": _doc(dense40), "blocked40.json": _doc(blocked40)}
    # four parses of the dense document (three classify, one blocks) are the
    # costliest jobs of a pass, so the tail percentile falls among them
    for name, arr, kind in (("dense40", dense40, "utb1"), ("dense40", dense40, "diag"),
                            ("dense40", dense40, "ltb1"), ("blocked40", blocked40, "utb1")):
        parts = random_parts(rng, 40, 2)
        add("cli_classify", ["classify", "--tensor", f"@{name}.json", "--partition",
                             ",".join(map(str, parts)), "--kind", kind],
            {f"{name}.json": docs[f"{name}.json"]}, _result_is(blocked(coo(arr)[0], parts, kind)))
    for name, arr, parts in (("dense40", dense40, (20, 20)), ("blocked40", blocked40, (20, 20)),
                             ("blocked40", blocked40, (10, 30))):
        add("cli_blocks", ["blocks", "--tensor", f"@{name}.json", "--partition",
                           ",".join(map(str, parts))],
            {f"{name}.json": docs[f"{name}.json"]}, _blocks_are(arr, parts))
    # nine det and nine spectrum jobs of one cost sit around the median of a pass
    for t in range(9):
        diag = _dyadic_diag(rng, 3, 20)
        idx, vals = _singletons_triangular(rng, 3, 20, (5, 5, 5, 5), "utb1", diag)
        name = f"tri20_{t}.json"
        docs[name] = {"order": 3, "dim": 20, "idx": idx, "vals": vals}
        sign, log_abs = log_det_closed_form(diag, 3)
        add("cli_det", ["det", "--tensor", f"@{name}", "--partition", "5,5,5,5", "--kind", "utb1"],
            {name: docs[name]},
            _ok(lambda doc, want=sign * math.exp(log_abs): close(doc["det"], want, 1e-9)))
        add("cli_spectrum", ["spectrum", "--tensor", f"@{name}", "--partition", "5,5,5,5",
                            "--kind", "utb1"], {name: docs[name]}, _spectrum_is(diag, 3))
    # eight mid-size jobs, each costlier than the det/spectrum block, centre
    # the median of a pass in that block
    for t in range(4):
        dense18 = rng.uniform(0.01, 1.0, (18,) * 3)
        name = f"dense18_{t}.json"
        docs[name] = _doc(dense18)
        parts = random_parts(rng, 18, 2)
        partition = ",".join(map(str, parts))
        add("cli_classify_d18", ["classify", "--tensor", f"@{name}", "--partition", partition,
                                 "--kind", KINDS[t]],
            {name: docs[name]}, _result_is(blocked(coo(dense18)[0], parts, KINDS[t])))
        add("cli_blocks_d18", ["blocks", "--tensor", f"@{name}", "--partition", partition],
            {name: docs[name]}, _blocks_are(dense18, parts))
    for t in range(2):
        left = rng.integers(-3, 4, (20, 20)).astype(float)
        right = rng.integers(1, 10, (20,) * 3).astype(float)
        add("cli_product", ["product", f"@left20_{t}.json", f"@right20_{t}.json",
                            "-o", f">product_{t}.out.json"],
            {f"left20_{t}.json": _doc(left), f"right20_{t}.json": _doc(right)},
            _product_is(left, right))
    for t in range(2):  # row-diagonal a[i, j, j] = P[i, j]: left inverse and its check
        mat = np.zeros((12, 12))
        keep = allowed_positions(2, 12, (4, 4, 4), "utb1") - 1
        mat[tuple(keep.T)] = rng.integers(-3, 4, len(keep))
        mat[np.arange(12), np.arange(12)] = 48 + rng.integers(0, 5, 12)
        rows, cols = np.nonzero(mat)
        tensor = {"order": 3, "dim": 12, "idx": np.column_stack([rows, cols, cols]) + 1,
                  "vals": mat[rows, cols]}
        inv = np.linalg.inv(mat)
        names = (f"rowdiag12_{t}.json", f"inverse12_{t}.json")
        add("cli_left_inverse", ["left-inverse", "--tensor", f"@{names[0]}", "-k", "2",
                                 "-o", f">left_{t}.out.json"], {names[0]: tensor},
            _ok(lambda doc, inv=inv: None if np.allclose(dense_of_doc(doc), inv, rtol=1e-9,
                                                         atol=1e-12 * np.abs(inv).max())
                else "left inverse differs from the NumPy reference"))
        add("cli_verify", ["verify", "--left", f"@{names[1]}", f"@{names[0]}"],
            {names[0]: tensor, names[1]: _doc(inv)}, _result_is(True))
    for t, (n, r) in enumerate(((12, 3), (12, 4), (10, 3), (10, 2))):
        idx, vals = _irreducible_blocks(rng, 3, random_parts(rng, n, r), 0.04)
        idx = relabel(idx, rng.permutation(n) + 1)
        name = f"reducible{n}_{t}.json"
        add("cli_normal_form", ["normal-form", "--tensor", f"@{name}", "--type", "3rd",
                                "-o", f">normal_form_{t}.out.json"],
            {name: {"order": 3, "dim": n, "idx": idx, "vals": vals}},
            _normal_form_is(idx, "utb3"))
    texts = {name: (fixtures / name).read_text() for name in FIXTURES}
    ex24, ex31, ex61 = (dense_of_doc(json.loads(texts[name])) for name in FIXTURES)
    for argv, expect in (
            (["classify", "--tensor", "@ex31.json", "--partition", "1,1", "--kind", "utb3"],
             _result_is(blocked(coo(ex31)[0], (1, 1), "utb3"))),
            (["classify", "--tensor", "@ex61.json", "--partition", "1,3", "--kind", "ltb1"],
             _result_is(blocked(coo(ex61)[0], (1, 3), "ltb1"))),
            (["classify", "--tensor", "@ex61.json", "--partition", "2,2", "--kind", "utb1"],
             _result_is(blocked(coo(ex61)[0], (2, 2), "utb1"))),
            (["classify", "--tensor", "@ex61.json", "--partition", "3,1", "--kind", "diag"],
             _result_is(blocked(coo(ex61)[0], (3, 1), "diag"))),
            (["classify", "--tensor", "@ex31.json", "--partition", "1,1", "--kind", "ltb2"],
             _result_is(blocked(coo(ex31)[0], (1, 1), "ltb2"))),
            (["blocks", "--tensor", "@ex31.json", "--partition", "1,1"], _blocks_are(ex31, (1, 1))),
            (["det", "--tensor", "@ex31.json", "--partition", "1,1", "--kind", "utb3"],
             _error_is("ThirdTypeUnsupported")),
            (["blocks", "--tensor", "@ex61.json", "--partition", "2,2"], _blocks_are(ex61, (2, 2))),
            (["normal-form", "--tensor", "@ex61.json", "--type", "3rd"],
             _normal_form_is(coo(ex61)[0], "utb3")),
            (["product", "@ex24.json", "@ex31.json"], _error_is("DimensionMismatch")
             if len(ex24) != len(ex31) else _product_is(ex24, ex31))):
        add("cli_fixture", argv, {t[1:]: texts[t[1:]] for t in argv if t.startswith("@")}, expect)
    return cases


# ------------------------------------------------------------------ registry

WORKLOADS = ("hypergraph_rho", "dense_spectral", "blocked_exact", "cli_docs")


def generate(workload: str, seed: int, workdir: Path, fixtures: Path) -> list[Case]:
    """The workload's cases, generated from ``seed`` alone."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    if workload == "hypergraph_rho":
        return hypergraph_cases(rng)
    if workload == "dense_spectral":
        return dense_cases(rng)
    if workload == "blocked_exact":
        return blocked_cases(rng)
    if workload == "cli_docs":
        return cli_cases(rng, workdir, fixtures)
    raise ValueError(f"unknown workload {workload!r}")


def digest(cases: list[Case]) -> str:
    """SHA-256 over every case's class and generated data."""
    h = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            for key in sorted(value):
                if key not in ("workdir", "expect"):
                    h.update(key.encode())
                    feed(value[key])
        elif isinstance(value, (list, tuple)):
            h.update(b"[")
            for item in value:
                feed(item)
            h.update(b"]")
        elif isinstance(value, float):
            h.update(value.hex().encode())
        else:
            h.update(repr(value).encode())

    for case in cases:
        h.update(case.cls.encode())
        feed(case.data)
    return h.hexdigest()
