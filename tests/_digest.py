"""Seeded output digest of the structural layer, one sha256 per area.

    python tests/_digest.py [SRC]

imports ``triblock`` from SRC (default: the ``src/`` beside this file's
directory) and prints one ``area sha256`` line per area. Two source
trees that print the same lines give the same outputs on a fixed seeded
ensemble of tensors whose dict order is shuffled against row order:
entries bit for bit (as a mapping) with their coordinate views, answers,
error classes with their messages, and CLI stdout on ``fixtures/`` byte
for byte. It reads only names that have long been part of the package,
so it runs unchanged against an older ``src/`` for a before/after
comparison. pytest does not collect it (the name does not start with
``test_``).

The spectral radius has areas of its own, ``radius`` for the API and
``cli_radius`` for the ``rho``, ``mtensor`` and ``hypergraph-rho`` verbs,
so a change to the power iteration's arithmetic shows there, in
``radius_blocks`` and in ``components``, and nowhere else. The ``wire`` area parses and serializes each ensemble tensor as a
document (``tensor_from_obj``, ``new_tensor``, ``loads_tensor``,
``dumps_tensor``), then with faulty records at random positions, and
records each result or error message. Its documents list the entries in
the order of the tensor's view, not of its ``entries`` mapping, so two
trees whose views agree compare the same documents. The ``inverse`` area records
``linalg.invert`` (with its warnings) and ``linalg.is_nonsingular`` on
each ensemble tensor's majorization matrix and on a matrix of its own:
small integers, Gaussians, block triangular integers (exact zeros over a
negative determinant), singular, near the pivot floor, or scaled by a
power of two. Its matrices keep pivots and inverses inside the double
range. It then records ``recover_right_form`` (Q and the sign profile),
``right_k_inverse`` and ``left_k_inverse`` on a tensor unit_tensor(m) * Q
of its own (orders 2-5, Q integral, dyadic or Gaussian, singular ones
included) and on a copy with one or two entries changed. The ``product``
area records ``general_product`` of each ensemble tensor, as it is or
scaled, by a right factor of its own: orders 1-3, integral or not,
integral sums past 2^53 (the fsum route), and factors whose every term
is past the double range (``ProductOutOfRange``). The
``peel`` area records ``normal_form_2nd`` (sigma and
partition), ``find_weakly_reducing_set`` and
``exists_first_type_normal_form`` on tensors of its own: non-symmetric
and mostly reducible, up to dim 40, with trailing indices mostly at or
after the row, so one peel takes many blocks. The
``refinement_wide`` area records ``_finest_refinement``, then
``det_blocked`` and ``spectrum_blocked`` under a partition of their own
and under that refinement, on tensors of dims 13-120, past the
ensemble's: up to 3n random index tuples, trailing indices mostly at or
after the row, at or before it, or anywhere, half of them blocked, with
a diagonal of mostly ±1. The ``radius_blocks`` area records
``spectral_radius``, with the default ``max_iter`` and with 20, on the
``peel`` tensors with absolute values: mostly reducible, so most radii
come from many diagonal blocks at once. The ``wire_text`` area records
``loads_tensor`` on each ensemble tensor's ``dumps_tensor`` text, which
the canonical reader takes, and on four seeded copies with 1-3
single-character replacements, insertions or deletions over the
characters of numbers and of the layout, most of which go to the
general path. The ``components`` area records ``connected_components``
on k-uniform hypergraphs of their own (k = 2-4, up to 300 vertices, from
no edges to one per vertex), then ``normal_form_2nd`` and
``spectral_radius`` on symmetrised tensors: orders 2-4, dims 1-30,
entries on some of the indices only, and beside each entry of row i that
mentions t one of row t whose trailing indices are all i, so every edge
of the entry digraph goes both ways. None of ``radius``, ``wire``,
``inverse``, ``product``, ``peel``, ``refinement_wide``,
``radius_blocks``, ``wire_text`` and ``components`` draws from the
ensemble's random stream, so adding them moved no other area's line.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "src"))

import triblock as tb  # noqa: E402
from triblock import BlockKind, Partition, cli, linalg, tensorio  # noqa: E402
from triblock.blocked import _block_ends, _forbidden  # noqa: E402
from triblock.errors import TriblockError  # noqa: E402
from triblock.spectra import _finest_refinement  # noqa: E402

SEED = 20161
TRIALS = 160
PEEL_SEED = 20162
PEEL_TRIALS = 120
WIDE_SEED = 20163
WIDE_TRIALS = 60
COMPONENTS_SEED = 20164
COMPONENTS_TRIALS = 120
VALUES = [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 0.5, -1.25]


def canon(x) -> str:
    """A text form that tells apart every output the digest compares. A tensor's row starts
    are derived from its view's rows, so a tree whose view stores them prints the same."""
    if isinstance(x, tb.Tensor):
        view = x.coo
        pairs = sorted((idx, v.hex()) for idx, v in x.entries.items())
        starts = (0,) + tuple(view.idx[:, 0].searchsorted(range(1, x.dim + 1)).tolist())
        return (f"T{x.order},{x.dim},{pairs},{view.idx.tobytes().hex()},"
                f"{view.vals.tobytes().hex()},{starts}")
    if isinstance(x, tb.SpectralResult):
        return canon([x.rho, x.eigvec, x.iterations, x.residual])
    if isinstance(x, tb.NormalForm):
        return f"NF{x.sigma.image},{x.partition.parts},{x.kind.token},{canon(x.blocks)}"
    if isinstance(x, (tb.Permutation, Partition)):
        return repr(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if hasattr(x, "tobytes"):
        return f"A{x.dtype},{x.shape},{x.tobytes().hex()}"
    if isinstance(x, frozenset):
        return canon(sorted(x))
    return repr(x)


def outcome(fn, *args) -> str:
    try:
        return canon(fn(*args))
    except TriblockError as exc:
        return f"E{type(exc).__name__}: {exc}"


def rand_partition(rng: random.Random, n: int) -> Partition:
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    ends = [0] + cuts + [n]
    return Partition(tuple(b - a for a, b in zip(ends, ends[1:])))


def shuffled(order: int, dim: int, entries: dict, rng: random.Random) -> tb.Tensor:
    keys = list(entries)
    rng.shuffle(keys)
    return tb.Tensor(order, dim, {idx: entries[idx] for idx in keys})


def ensemble():
    """(rng, tensor, partition, kind): random tensors, and blocked ones under (partition, kind)."""
    rng = random.Random(SEED)
    for trial in range(TRIALS):
        order, dim = rng.randint(2, 4), rng.randint(1, 7 if trial % 3 else 4)
        if order == 4:
            dim = min(dim, 5)
        density = rng.choice([0.05, 0.15, 0.3, 0.6])
        kind = rng.choice(list(BlockKind))
        p = rand_partition(rng, dim)
        blocked = trial % 2 == 0 and (p.r >= 2 or not kind.is_triangular)
        entries = {}
        for idx in itertools.product(range(1, dim + 1), repeat=order):
            if rng.random() >= density:
                continue
            j = p.block_of(idx[0])
            if blocked and _forbidden(kind, p.S(j - 1), p.S(j), min(idx[1:]), max(idx[1:])):
                continue
            entries[idx] = rng.choice(VALUES)
        yield rng, shuffled(order, dim, entries, rng), p, (kind if blocked else None)


def area_subtensors(rng, t, p, kind, out):
    for _ in range(2):
        members = rng.sample(range(1, t.dim + 1), rng.randint(1, t.dim))
        out.append(canon(tb.principal_subtensor(t, members)))
    image = list(range(1, t.dim + 1))
    rng.shuffle(image)
    out.append(canon(tb.permute_similar(t, tb.Permutation(tuple(image)))))
    out.append(canon(tb.diagonal_blocks(t, p)))
    out.append(canon(tb.diagonal_blocks(t, rand_partition(rng, t.dim))))
    out.append(canon(tb.Tensor.from_dense(t.to_dense())))
    out.append(canon(tb.row_diagonal_from_matrix(tb.majorization_matrix(t), t.order)))


def area_is_blocked(rng, t, p, kind, out):
    for k in BlockKind:
        for q in (p, rand_partition(rng, t.dim)):
            out.append(outcome(tb.is_blocked, t, q, k))


def area_block_ends(rng, t, p, kind, out):
    out.append(canon(list(_block_ends(t, tuple(BlockKind)))))


def area_reducing(rng, t, p, kind, out):
    strong, weak = tb.find_reducing_set(t), tb.find_weakly_reducing_set(t)
    out.append(canon([strong, weak, tb.is_irreducible(t), tb.is_weakly_irreducible(t)]))
    members = rng.sample(range(1, t.dim + 1), rng.randint(1, t.dim))
    out.append(canon([tb.strongly_reduces(t, members), tb.weakly_reduces(t, members)]))
    for found, w in ((strong, False), (weak, True)):
        if found is not None:
            out.append(canon(tb.reducing_to_utb(t, found, weak=w)))


def area_normal_forms(rng, t, p, kind, out):
    out.append(outcome(tb.normal_form_2nd, t))
    out.append(outcome(tb.normal_form_3rd, t))
    out.append(outcome(tb.exists_first_type_normal_form, t))


def area_refinement(rng, t, p, kind, out):
    out.append(canon(_finest_refinement(t)))


def area_det_spectrum(rng, t, p, kind, out):
    for k in (kind,) if kind is not None else (BlockKind.UTB1, BlockKind.UTB3):
        out.append(outcome(tb.det_blocked, t, p, k))
        out.append(outcome(tb.spectrum_blocked, t, p, k))


def area_radius(t) -> str:
    nonneg = tb.Tensor(t.order, t.dim, {idx: abs(v) for idx, v in t.entries.items()})
    return outcome(lambda a: tb.spectral_radius(a, max_iter=2000), nonneg)


def area_majorization(rng, t, p, kind, out):
    out.append(canon(tb.majorization_matrix(t)))
    out.append(canon(tb.representation_matrix(t)))
    out.append(canon([tb.is_row_diagonal(t), tb.is_z_tensor(t)]))
    out.append(outcome(tb.det_diagonal, t))
    out.append(outcome(lambda a: [tb.z_split(a).s, tb.z_split(a).b], t))


WIRE_FAULTS = [
    lambda rng, m, n: rng.choice([None, 7, "x", [1] * m, {"v": 1.0}, {"i": [1] * m, "v": True}]),
    lambda rng, m, n: {"i": [1] * (m + rng.choice([-1, 1])), "v": 1.0},
    lambda rng, m, n: {"i": [1] * (m - 1) + [rng.choice([1.5, True, "1", None])], "v": 1.0},
    lambda rng, m, n: {"i": [rng.choice([0, n + 1, 2 ** 63, 2 ** 70])] + [1] * (m - 1), "v": 1.0},
    lambda rng, m, n: {"i": [n] * m, "v": rng.choice([math.nan, -math.inf, 10 ** 400])},
]


def wire_outcome(fn, *args) -> str:
    try:
        return canon(fn(*args))
    except (TriblockError, ValueError, OverflowError) as exc:
        return f"E{type(exc).__name__}: {exc}"


def area_wire(rng, t, out):
    """The tensor as a document built from its view (``t.coo``, so it does not depend on the
    order ``entries`` iterates in), with integer values and explicit zeros, then with one or
    two faulty records (or a repeated index) at random positions."""
    records = [{"i": idx, "v": int(v) if v.is_integer() and rng.random() < 0.5 else v}
               for idx, v in zip((t.coo.idx + 1).tolist(), t.coo.vals.tolist())]
    for _ in range(rng.randint(0, 2)):
        zero = {"i": [rng.randint(1, t.dim) for _ in range(t.order)], "v": rng.choice([0, 0.0])}
        records.insert(rng.randint(0, len(records)), zero)
    doc = {"order": t.order, "dim": t.dim, "entries": records}
    out.append(wire_outcome(tensorio.tensor_from_obj, doc))
    out.append(wire_outcome(tb.new_tensor, t.order, t.dim,
                            [(tuple(r["i"]), r["v"]) for r in records]))
    out.append(wire_outcome(lambda text: tensorio.dumps_tensor(tensorio.loads_tensor(text)),
                            json.dumps(doc)))
    for faults in (1, 2):
        bad = list(records)
        for _ in range(faults):
            k = rng.randint(0, len(bad))
            if rng.random() < 0.2:  # repeat an index of the document
                bad.insert(k, {"i": rng.choice(records or [{"i": [1] * t.order}])["i"], "v": 1.0})
            else:
                bad.insert(k, rng.choice(WIRE_FAULTS)(rng, t.order, t.dim))
        out.append(wire_outcome(tensorio.tensor_from_obj, dict(doc, entries=bad)))


TEXT_ALPHABET = '0123456789.-+eE,[]{}":iv \t\n'


def area_wire_text(rng, t, out):
    """``loads_tensor`` on the tensor's canonical text, then on four copies with 1-3 seeded
    single-character replacements, insertions or deletions each."""
    text = tensorio.dumps_tensor(t)
    out.append(wire_outcome(tensorio.loads_tensor, text))
    for _ in range(4):
        bad = text
        for _ in range(rng.randint(1, 3)):
            k, edit = rng.randrange(len(bad) + 1), rng.randrange(3)
            keep = k + 1 if edit == 1 else k  # a replacement or deletion drops bad[k]
            bad = bad[:k] + ("" if edit == 2 else rng.choice(TEXT_ALPHABET)) + bad[keep:]
        out.append(wire_outcome(tensorio.loads_tensor, bad))


PRODUCT_SCALES = [(1.0, 1.0), (4.0, 1.0), (4.0, 4.0), (4.0, 4.0 * 2.0 ** 50), (1e200, 1e200)]


def area_product(rng, t, out):
    """``general_product`` of the tensor, scaled, by a random right factor of order 1-3 (1-2
    beside order 4). Scaling by 4 makes ``VALUES`` integral, 2^50 sends integral sums past
    2^53 (the fsum route) and 1e200 on both factors takes every term past the double range."""
    a_scale, b_scale = rng.choice(PRODUCT_SCALES)
    k = rng.randint(1, 2 if t.order == 4 else 3)
    density = rng.choice([0.3, 0.6, 1.0])
    entries = {idx: rng.choice(VALUES) * b_scale
               for idx in itertools.product(range(1, t.dim + 1), repeat=k) if rng.random() < density}
    a = tb.Tensor(t.order, t.dim, {idx: v * a_scale for idx, v in t.entries.items()})
    out.append(outcome(tb.general_product, a, shuffled(k, t.dim, entries, rng)))


def inverse_matrix(rng: random.Random) -> list[list[float]]:
    n, kind = rng.randint(1, 8), rng.randrange(6)
    mat = [[float(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    if kind == 1:
        mat = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    elif kind == 2:  # block triangular with a nonzero diagonal, maybe a negative determinant
        mat = [[0.0 if j < i else rng.choice([-2.0, -1.0, 1.0, 3.0]) if j == i else v
                for j, v in enumerate(row)] for i, row in enumerate(mat)]
    elif kind == 3:  # a row repeated, maybe scaled
        mat[rng.randrange(n)] = [rng.choice([1.0, -2.0]) * v for v in mat[rng.randrange(n)]]
    elif kind == 4:  # the last row near the span of the others
        coeffs = [rng.randint(-2, 2) for _ in mat[:-1]]
        mat[-1] = [sum(c * row[j] for c, row in zip(coeffs, mat)) for j in range(n)]
        mat[-1][rng.randrange(n)] += 10.0 ** rng.uniform(-14, -10)
    elif kind == 5:
        mat = [[v * 2.0 ** rng.randint(-60, 60) for v in row] for row in mat]
    return mat


def right_forms(rng: random.Random) -> list[tb.Tensor]:
    """unit_tensor(m) * Q for an integral, dyadic or Gaussian Q, maybe singular, and a copy
    with 1-2 entries negated, nudged, zeroed or added, mostly not a right form."""
    m, n = rng.randint(2, 5), rng.randint(1, 5)
    n = min(n, 4) if m == 5 else n
    cell = [lambda: float(rng.randint(-3, 3)), lambda: rng.choice([0.0, 0.5, -0.25, 1.5, -2.0]),
            lambda: rng.gauss(0.0, 1.0) if rng.random() < 0.7 else 0.0][rng.randrange(3)]
    q = [[cell() for _ in range(n)] for _ in range(n)]
    form = tb.general_product(tb.unit_tensor(m, n), tb.tensor_from_matrix(q))
    entries = dict(form.entries)
    for _ in range(rng.randint(1, 2)):
        key = tuple(rng.randint(1, n) for _ in range(m))
        entries[key] = rng.choice([-1.0, 1.0 + 1e-9, 0.0]) * entries.get(key, 1.0)
    return [form, shuffled(m, n, entries, rng)]


def recovered(t: tb.Tensor) -> list:
    recovery = tb.recover_right_form(t)
    return [recovery.q, recovery.sign_profile]


def area_inverse(rng, t, out):
    for mat in (tb.majorization_matrix(t), inverse_matrix(rng)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out.append(outcome(linalg.invert, mat))
        out.append(canon([str(w.message) for w in caught]))
        out.append(canon(linalg.is_nonsingular(mat)))
    k = rng.randint(2, 4)
    for form in right_forms(rng):
        out.append(outcome(recovered, form))
        out.append(outcome(tb.right_k_inverse, form, k))
        out.append(outcome(tb.left_k_inverse, form, k))


def peel_tensors():
    """Up to 3·dim random index tuples, 85 % of them with trailing indices >= the row."""
    rng = random.Random(PEEL_SEED)
    for _ in range(PEEL_TRIALS):
        order, dim = rng.randint(2, 4), rng.randint(1, 40)
        entries = {}
        for _ in range(rng.randint(0, 3 * dim)):
            row = rng.randint(1, dim)
            lo = row if rng.random() < 0.85 else 1
            feet = tuple(rng.randint(lo, dim) for _ in range(order - 1))
            entries[(row,) + feet] = rng.choice(VALUES)
        yield shuffled(order, dim, entries, rng)


def area_peel(t) -> str:
    nf = tb.normal_form_2nd(t)
    return canon([nf.sigma, nf.partition, tb.find_weakly_reducing_set(t),
                  tb.exists_first_type_normal_form(t)])


def area_radius_blocks(t) -> str:
    nonneg = tb.Tensor(t.order, t.dim, {idx: abs(v) for idx, v in t.entries.items()})
    return "\n".join([outcome(tb.spectral_radius, nonneg),
                      outcome(lambda a: tb.spectral_radius(a, max_iter=20), nonneg)])


def wide_tensors():
    """(tensor, partition, kind or None) at dims 13-120, blocked under (partition, kind) or not."""
    rng = random.Random(WIDE_SEED)
    supported = [BlockKind.UTB1, BlockKind.UTB2, BlockKind.LTB1, BlockKind.LTB2, BlockKind.DIAG]
    for trial in range(WIDE_TRIALS):
        order, dim, pattern = rng.randint(2, 4), rng.randint(13, 120), trial % 3
        kind, p, gap = rng.choice(supported), rand_partition(rng, dim), rng.choice([0.0, 0.02])
        blocked = trial % 2 == 0 and (p.r >= 2 or not kind.is_triangular)
        entries = {(i,) * order: rng.choice([1.0, -1.0] * 20 + [2.0, 0.5])
                   for i in range(1, dim + 1) if rng.random() >= gap}
        for _ in range(rng.randint(0, 3 * dim)):
            row = rng.randint(1, dim)
            lo, hi = ((row, dim), (1, row), (1, dim))[pattern if rng.random() < 0.9 else 2]
            feet = tuple(rng.randint(lo, hi) for _ in range(order - 1))
            j = p.block_of(row)
            if not (blocked and _forbidden(kind, p.S(j - 1), p.S(j), min(feet), max(feet))):
                entries[(row,) + feet] = rng.choice(VALUES)
        yield shuffled(order, dim, entries, rng), p, (kind if blocked else None)


def area_refinement_wide(t, p, kind) -> str:
    found = _finest_refinement(t)
    out = [canon(found)]
    for q, k in ([(p, kind)] if kind is not None else []) + ([found] if found else []):
        out.append(outcome(tb.det_blocked, t, q, k))
        out.append(outcome(tb.spectrum_blocked, t, q, k))
    return "\n".join(out)


def cli_runs():
    """Every verb on every fixture it applies to, with a few partitions."""
    fx = ROOT / "fixtures"
    for path in sorted(fx.glob("*.json")):
        name = str(path)
        if "hyper" in path.name:
            yield ["hypergraph-rho", "--edges", name]
            continue
        dim = tensorio.loads_tensor(path.read_text()).dim
        partitions = [",".join(map(str, parts)) for parts in tb.compositions(dim)]
        for q in partitions:
            yield ["blocks", "--tensor", name, "--partition", q]
            for k in BlockKind:
                yield ["classify", "--tensor", name, "--partition", q, "--kind", k.token]
            for k in ("utb1", "utb2", "utb3", "ltb1", "diag"):
                yield ["det", "--tensor", name, "--partition", q, "--kind", k]
                yield ["spectrum", "--tensor", name, "--partition", q, "--kind", k]
        yield ["rho", "--tensor", name]
        yield ["oracle", "--tensor", name, "--restarts", "2", "--iters", "20"]
        yield ["mtensor", "--tensor", name]
        yield ["normal-form", "--tensor", name, "--type", "2nd"]
        yield ["normal-form", "--tensor", name, "--type", "3rd"]
        yield ["first-type-normal", "--tensor", name]
        yield ["left-inverse", "--tensor", name, "-k", "2"]
        yield ["right-inverse", "--tensor", name, "-k", "3"]
        yield ["product", name, name]
        yield ["verify", "--left", name, name]


def component_cases():
    """(hypergraph, symmetrised nonnegative tensor) pairs, as the docstring describes."""
    rng = random.Random(COMPONENTS_SEED)
    for _ in range(COMPONENTS_TRIALS):
        k, n = rng.randint(2, 4), rng.randint(1, 300)
        count = rng.choice([0, 1, n // 4, n // 2, n]) if n >= k else 0
        edges = {frozenset(rng.sample(range(1, n + 1), k)): None for _ in range(count)}
        graph = tb.Hypergraph.from_edge_lists(k, n, edges)
        order, dim = rng.randint(2, 4), rng.randint(1, 30)
        used = rng.sample(range(1, dim + 1), rng.randint(1, dim))
        entries = {tuple(rng.choice(used) for _ in range(order)): rng.choice([0.5, 1.0, 3.0])
                   for _ in range(rng.randint(0, 2 * len(used)))}
        for idx in list(entries):
            for foot in idx[1:]:
                entries.setdefault((foot,) + (idx[0],) * (order - 1), rng.choice([0.5, 2.0]))
        yield graph, shuffled(order, dim, entries, rng)


def area_components(graph, t) -> str:
    nf = outcome(tb.normal_form_2nd, t)
    return "\n".join([canon(tb.connected_components(graph)), nf, outcome(tb.spectral_radius, t)])


RADIUS_VERBS = {"rho", "mtensor", "hypergraph-rho"}


def cli_digest(radius: bool) -> str:
    """The runs of the radius verbs, or of all the others."""
    h = hashlib.sha256()
    for argv in cli_runs():
        if (argv[0] in RADIUS_VERBS) != radius:
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        h.update(f"{argv[0]} {code}\n{buf.getvalue()}".encode())
    return h.hexdigest()


AREAS = {
    "subtensors_permutations_blocks": area_subtensors,
    "is_blocked": area_is_blocked,
    "block_ends": area_block_ends,
    "reducing_sets": area_reducing,
    "normal_forms": area_normal_forms,
    "finest_refinement": area_refinement,
    "det_spectrum": area_det_spectrum,
    "majorization": area_majorization,
}


def main() -> None:
    names = [*AREAS, "radius", "wire", "inverse", "product", "peel", "refinement_wide",
             "radius_blocks", "wire_text", "components"]
    hashes = {name: hashlib.sha256() for name in names}
    for trial, (rng, t, p, kind) in enumerate(ensemble()):
        for name, area in AREAS.items():
            out: list[str] = []
            area(random.Random(f"{name}{rng.random()}"), t, p, kind, out)
            hashes[name].update(("\n".join(out) + "\n").encode())
        hashes["radius"].update((area_radius(t) + "\n").encode())
        out = []
        area_wire(random.Random(f"wire{trial}"), t, out)
        hashes["wire"].update(("\n".join(out) + "\n").encode())
        out = []
        area_inverse(random.Random(f"inverse{trial}"), t, out)
        hashes["inverse"].update(("\n".join(out) + "\n").encode())
        out = []
        area_product(random.Random(f"product{trial}"), t, out)
        hashes["product"].update(("\n".join(out) + "\n").encode())
        out = []
        area_wire_text(random.Random(f"wire_text{trial}"), t, out)
        hashes["wire_text"].update(("\n".join(out) + "\n").encode())
    for t in peel_tensors():
        hashes["peel"].update((area_peel(t) + "\n").encode())
        hashes["radius_blocks"].update((area_radius_blocks(t) + "\n").encode())
    for t, p, kind in wide_tensors():
        hashes["refinement_wide"].update((area_refinement_wide(t, p, kind) + "\n").encode())
    for graph, t in component_cases():
        hashes["components"].update((area_components(graph, t) + "\n").encode())
    for name, h in hashes.items():
        print(name, h.hexdigest())
    print("cli_fixtures", cli_digest(radius=False))
    print("cli_radius", cli_digest(radius=True))


if __name__ == "__main__":
    main()
