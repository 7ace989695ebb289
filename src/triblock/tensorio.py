"""JSON wire format for tensors, hypergraphs and structured results.

Tensors travel as

    {"order": m, "dim": n, "entries": [{"i": [i1, ..., im], "v": value}, ...]}

with entries sorted by index tuple, omitted entries meaning zero, and
values as doubles in Python's shortest round-tripping form, so
parse -> serialize is the identity on canonical documents and output is
byte-stable across runs. Matrices ride along as order-2 tensors.

A document is checked in this order, and the first offender raises:
the shape of every record (``FormatError``), then the order and dim,
then entry by entry its arity, each component's type and range, a
repeat of an earlier index (even one given the value 0), and a finite
double value (``FormatError``).
"""
from __future__ import annotations

import json
from itertools import repeat
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from .blocked import Partition
from .core import Tensor, _tensor_from_entries
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


def _is_record(item: Any) -> bool:
    return (isinstance(item, dict) and "i" in item and "v" in item and isinstance(item["i"], list)
            and isinstance(item["v"], (int, float)) and not isinstance(item["v"], bool))


def _entry_records(raw: list) -> tuple[list, list]:
    """The index lists and the values of the records, refusing the first malformed record.
    Records of the exact types JSON gives pass in bulk; others are looked at one by one."""
    if set(map(type, raw)) <= {dict}:
        keys, values = list(map(dict.get, raw, repeat("i"))), list(map(dict.get, raw, repeat("v")))
        if set(map(type, keys)) <= {list} and set(map(type, values)) <= {int, float}:
            return keys, values
    good = list(map(_is_record, raw))
    if not all(good):
        raise FormatError(f"bad entry record: {raw[good.index(False)]!r}")
    return list(map(itemgetter("i"), raw)), list(map(itemgetter("v"), raw))


def tensor_from_obj(obj: Any) -> Tensor:
    if not isinstance(obj, dict):
        raise FormatError("tensor document must be a JSON object")
    missing = {"order", "dim", "entries"} - obj.keys()
    if missing:
        raise FormatError(f"tensor document lacks keys: {sorted(missing)}")
    order, dim, raw = obj["order"], obj["dim"], obj["entries"]
    if not isinstance(order, int) or not isinstance(dim, int) or isinstance(order, bool) \
            or isinstance(dim, bool):
        raise FormatError("order and dim must be integers")
    if not isinstance(raw, list):
        raise FormatError("entries must be a list")
    keys, values = _entry_records(raw)
    try:
        return _tensor_from_entries(order, dim, keys, values)
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
    """What ``dumps(tensor_to_obj(tensor))`` prints, written from the view: values as doubles."""
    view = tensor.coo
    by_index = np.lexsort(view.idx.T[::-1])
    columns = [(column + 1).tolist() for column in view.idx[by_index].T]
    entry = '{"i": [%s], "v": %%r}' % ", ".join(["%d"] * tensor.order)
    entries = ", ".join(map(entry.__mod__, zip(*columns, view.vals[by_index].tolist())))
    return '{"order": %d, "dim": %d, "entries": [%s]}' % (tensor.order, tensor.dim, entries)


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


def dumps_blocks(blocks: Sequence[Tensor]) -> str:
    """``dumps({"blocks": [tensor_to_obj(b) for b in blocks]})``, through ``dumps_tensor``."""
    return '{"blocks": [%s]}' % ", ".join(map(dumps_tensor, blocks))


def dumps_normal_form(nf: NormalForm) -> str:
    """``dumps(normal_form_to_obj(nf))``, with the blocks through ``dumps_tensor``."""
    return '{"sigma": %s, "partition": %s, "kind": %s, %s' % (
        dumps(list(nf.sigma.image)), dumps(list(nf.partition.parts)), dumps(nf.kind.token),
        dumps_blocks(nf.blocks)[1:])  # the blocks document's field, without its opening brace


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
