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

``loads_tensor`` reads a document in exactly the layout ``dumps_tensor``
writes (at least one record, maybe followed by JSON whitespace) from the
text straight to index and value arrays, without the JSON object tree.
Every other text, and every canonical one with a faulty number, index or
value, goes through ``tensor_from_obj(loads(text))``, so every refusal
comes from that one path.
"""
from __future__ import annotations

import json
import re
import sys
from itertools import repeat
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from .core import Tensor, _in_range, _integer_type, _nonzero_tensor, _tensor_from_entries
from .errors import FormatError
from .spectra import SpectrumFactored
from .structure import Hypergraph, NormalForm

# The canonical layout: the document around its records joined by _JOIN, each record around
# its index components joined by _JOIN. ``dumps_tensor`` writes it and ``loads_tensor`` reads
# it without the JSON object tree.
_DOCUMENT = '{"order": %d, "dim": %d, "entries": [%s]}'
_RECORD = '{"i": [%s], "v": %%r}'
_JOIN = ", "
_HEAD, _TAIL = _DOCUMENT.split("%s")
_HEADER = re.compile(re.escape(_HEAD).replace("%d", "([1-9][0-9]{0,17})"))
_NUMBER = b"0123456789.+-eE"  # the characters of JSON numbers


def _sorted_entries(tensor: Tensor) -> tuple[list[list[int]], list[float]]:
    """The 1-based index columns and the values of the view's entries, sorted by index."""
    view = tensor.coo
    by_index = np.lexsort(view.idx.T[::-1])
    return [(column + 1).tolist() for column in view.idx[by_index].T], view.vals[by_index].tolist()


def tensor_to_obj(tensor: Tensor) -> dict:
    columns, values = _sorted_entries(tensor)
    entries = [{"i": index, "v": v} for *index, v in zip(*columns, values)]
    return {"order": tensor.order, "dim": tensor.dim, "entries": entries}


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
    if not (_integer_type(type(order)) and _integer_type(type(dim))):
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


def _record(order: int) -> str:
    """The record template of an order-``order`` tensor: ``%d`` per index component, ``%r``
    for the value."""
    return _RECORD % _JOIN.join(["%d"] * order)


def dumps_tensor(tensor: Tensor) -> str:
    """What ``dumps(tensor_to_obj(tensor))`` prints, written from the view: values as doubles."""
    columns, values = _sorted_entries(tensor)
    entries = _JOIN.join(map(_record(tensor.order).__mod__, zip(*columns, values)))
    return _DOCUMENT % (tensor.order, tensor.dim, entries)


def _canonical_tensor(text: str) -> Tensor | None:
    """The tensor of a document in exactly the layout ``dumps_tensor`` writes, with at least
    one record and maybe followed by JSON whitespace, read from the text straight to index and
    value arrays; None for any other text and wherever the general path would raise.

    With the number characters deleted, the records must be the skeleton of the record
    template joined k times. Each structural token between two numbers then becomes one
    separator, and the result must read as a flat JSON array of k·(order + 1) numbers whose
    index slots are ints. A number outside its slot leaves a token in place, where the array
    does not parse, or splits a separator, which the count of separators finds.
    """
    header = _HEADER.match(text)
    end = len(text.rstrip(" \t\n\r"))
    if header is None or not text.endswith(_TAIL, 0, end):
        return None
    order, dim = int(header[1]), int(header[2])
    body = text[header.end():end - len(_TAIL)]
    if len(body) < order or not body.isascii():  # a record holds order digits; ASCII encodes
        return None
    pieces = re.split("%[dr]", _record(order))  # opening, separators, middle, closing
    opening, middle, closing = pieces[0], pieces[-2], pieces[-1]
    skeleton, join = "".join(pieces).encode().translate(None, _NUMBER), _JOIN.encode()
    found = body.encode().translate(None, _NUMBER)
    records = (len(found) + len(join)) // (len(skeleton) + len(join))
    if found != join.join([skeleton] * records) \
            or not (body.startswith(opening) and body.endswith(closing)):
        return None
    slots = records * (order + 1)
    flat = body[len(opening):-len(closing)].replace(middle, _JOIN)
    flat = flat.replace(closing + _JOIN + opening, _JOIN)
    if flat.count(_JOIN) != slots - 1:
        return None
    try:
        numbers = json.loads("[%s]" % flat)
    except ValueError:  # not a JSON number, a token left in place, or an integer too long
        return None
    if len(numbers) != slots:
        return None
    values = numbers[order::order + 1]
    del numbers[order::order + 1]
    if not set(map(type, numbers)) <= {int}:
        return None
    checked = _in_range(order, dim, numbers, values)
    return checked and _nonzero_tensor(order, dim, *checked)


def loads_tensor(text: str) -> Tensor:
    """The tensor of a document: a canonical one read directly, any other through
    ``tensor_from_obj``, which raises every refusal."""
    return _canonical_tensor(text) or tensor_from_obj(loads(text))


def spectrum_to_obj(spectrum: SpectrumFactored) -> dict:
    return {
        "items": [{"eigs": list(item.eigenvalues), "exp": item.exponent}
                  for item in spectrum.items],
        "degree": spectrum.total_degree,
    }


def dumps_spectrum(spectrum: SpectrumFactored) -> str:
    """``dumps(spectrum_to_obj(spectrum))``, refusing a spectrum whose exponent or degree has
    more digits than Python converts from int to text (``sys.get_int_max_str_digits()``)."""
    try:
        return dumps(spectrum_to_obj(spectrum))
    except ValueError as exc:  # the one ValueError json.dumps raises on ints and doubles
        raise FormatError(f"the spectrum has an integer past the limit of "
                          f"{sys.get_int_max_str_digits()} digits for integer string "
                          f"conversion") from exc


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
    if not (_integer_type(type(k)) and _integer_type(type(n)) and isinstance(edges, list)):
        raise FormatError("k and n must be integers and edges a list")
    for edge in edges:
        if not isinstance(edge, list) or not all(map(_integer_type, map(type, edge))):
            raise FormatError(f"bad edge record: {edge!r}")
    return Hypergraph.from_edge_lists(k, n, edges)
