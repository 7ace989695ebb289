"""JSON wire format for tensors, hypergraphs and structured results.

Tensors travel as

    {"order": m, "dim": n, "entries": [{"i": [i1, ..., im], "v": value}, ...]}

with entries sorted by index tuple, omitted entries meaning zero, and
numbers printed in Python's shortest round-tripping form, so
parse -> serialize is the identity on canonical documents and output is
byte-stable across runs. Matrices ride along as order-2 tensors.
"""
from __future__ import annotations

import json
from typing import Any

from .blocked import Partition
from .core import Tensor, new_tensor
from .errors import FormatError
from .spectra import SpectrumFactored
from .structure import Hypergraph, NormalForm


def tensor_to_obj(tensor: Tensor) -> dict:
    return {
        "order": tensor.order,
        "dim": tensor.dim,
        "entries": [{"i": list(idx), "v": v}
                    for idx, v in sorted(tensor.entries.items())],
    }


def tensor_from_obj(obj: Any) -> Tensor:
    if not isinstance(obj, dict):
        raise FormatError("tensor document must be a JSON object")
    missing = {"order", "dim", "entries"} - obj.keys()
    if missing:
        raise FormatError(f"tensor document lacks keys: {sorted(missing)}")
    order, dim, raw = obj["order"], obj["dim"], obj["entries"]
    if not isinstance(order, int) or not isinstance(dim, int):
        raise FormatError("order and dim must be integers")
    if not isinstance(raw, list):
        raise FormatError("entries must be a list")
    pairs = []
    for item in raw:
        if not isinstance(item, dict) or "i" not in item or "v" not in item:
            raise FormatError(f"bad entry record: {item!r}")
        idx, value = item["i"], item["v"]
        if not isinstance(idx, list) or not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            raise FormatError(f"bad entry record: {item!r}")
        pairs.append((idx, value))
    try:
        return new_tensor(order, dim, pairs)
    except (ValueError, OverflowError) as exc:  # NaN, infinities, integers past the double range
        raise FormatError(f"entry value is not a finite double: {exc}") from exc


def dumps(obj: Any) -> str:
    """Canonical single-line JSON text."""
    return json.dumps(obj)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc


def dumps_tensor(tensor: Tensor) -> str:
    return dumps(tensor_to_obj(tensor))


def loads_tensor(text: str) -> Tensor:
    return tensor_from_obj(loads(text))


def spectrum_to_obj(spectrum: SpectrumFactored) -> dict:
    return {
        "items": [{"eigs": list(item.eigenvalues), "exp": item.exponent}
                  for item in spectrum.items],
        "degree": spectrum.total_degree,
    }


def normal_form_to_obj(nf: NormalForm) -> dict:
    return {
        "sigma": list(nf.sigma.image),
        "partition": list(nf.partition.parts),
        "kind": nf.kind.token,
        "blocks": [tensor_to_obj(b) for b in nf.blocks],
    }


def hypergraph_from_obj(obj: Any) -> Hypergraph:
    if not isinstance(obj, dict):
        raise FormatError("hypergraph document must be a JSON object")
    missing = {"k", "n", "edges"} - obj.keys()
    if missing:
        raise FormatError(f"hypergraph document lacks keys: {sorted(missing)}")
    k, n, edges = obj["k"], obj["n"], obj["edges"]
    if not isinstance(k, int) or not isinstance(n, int) or not isinstance(edges, list):
        raise FormatError("k and n must be integers and edges a list")
    for edge in edges:
        if not isinstance(edge, list) or not all(isinstance(v, int) for v in edge):
            raise FormatError(f"bad edge record: {edge!r}")
    return Hypergraph.from_edge_lists(k, n, edges)


def hypergraph_to_obj(graph: Hypergraph) -> dict:
    return {
        "k": graph.k,
        "n": graph.n,
        "edges": [sorted(edge) for edge in graph.edges],
    }


def partition_from_obj(obj: Any) -> Partition:
    if not isinstance(obj, list) or not all(isinstance(p, int) for p in obj):
        raise FormatError(f"partition must be a list of integers, got {obj!r}")
    return Partition(tuple(obj))
