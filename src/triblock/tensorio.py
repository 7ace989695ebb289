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

``loads_tensor`` reads a document, given as text or as a file's bytes, in
exactly the layout ``dumps_tensor`` writes (at least one record, maybe
followed by JSON whitespace) from its bytes straight to index and value
arrays, without the JSON object tree, once it is long enough for that to
pay. It scans the body's bytes with NumPy, span by span of whole records:
the structure is checked against the record template, the indices are
read from their digits, and ``json.loads`` reads only the values. Every
other document, and every canonical one with a faulty number, index or
value, goes through ``tensor_from_obj(loads(text))``, so every refusal
comes from that one path.
"""
from __future__ import annotations

import io
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
_HEADER = re.compile(re.escape(_HEAD).replace("%d", "([1-9][0-9]{0,17})").encode())
_SPACE = b" \t\n\r"  # JSON whitespace
_NUMBER = b"0123456789.+-eE"  # the characters of JSON numbers
_FLAGS = bytes(c in _NUMBER for c in range(256))  # 1 for a number character, else 0
_BLANK = bytes(c if c in _NUMBER else ord(" ") for c in range(256))  # numbers kept, else spaces
_SPAN = 1 << 18  # characters of records ``_canonical_tensor`` scans at a time
_SCANNED = 2500  # the shortest document ``loads_tensor`` scans: the general path reads faster


def _sorted_entries(tensor: Tensor) -> tuple[list[list[int]], list[float]]:
    """The 1-based index columns and the values of the view's entries, sorted by index."""
    view = tensor.coo
    by_index = np.lexsort(view.idx.T[::-1])
    return (view.idx.T.take(by_index, axis=1) + 1).tolist(), view.vals[by_index].tolist()


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


def _pieces(order: int) -> list[str]:
    """The text of an order-``order`` record around its slots: the opening, the separators
    between index components, the piece before the value and the closing."""
    return re.split("%[dr]", _RECORD % _JOIN.join(["%d"] * order))


def _index_order(tensor: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """The view's 0-based index columns and values sorted by index. The view is taken as it
    is where it is in that order already, that is where from each index to the next every
    component that falls comes after one that rises (one vectorised test, at any dim)."""
    view = tensor.coo
    columns, values = view.idx.T, view.vals
    steps = columns[:, 1:] - columns[:, :-1]
    if (np.logical_or.accumulate(steps > 0, axis=0) | (steps >= 0)).all():
        return columns, values
    by_index = np.lexsort(columns[::-1])
    return columns.take(by_index, axis=1), values[by_index]


def dumps_tensor(tensor: Tensor) -> str:
    """What ``dumps(tensor_to_obj(tensor))`` prints, written from the view: values as doubles.

    Each record is three strings: the previous record's closing, the join and the opening
    with the leading components, one string per run of records that share them; the last
    component with the piece before the value, from a table where the dim is no larger than
    the entries; and the value's ``repr``. They are laid into one list and joined once."""
    order, dim, n = tensor.order, tensor.dim, tensor.nnz
    if not n:
        return _DOCUMENT % (order, dim, "")
    columns, values = _index_order(tensor)
    pieces = _pieces(order)
    lead, last, parts = columns[:-1], columns[-1], [""] * (3 * n + 2)
    starts = np.ones(n, dtype=bool)  # where a run of equal leading components starts
    (lead[:, 1:] != lead[:, :-1]).any(axis=0, out=starts[1:])
    opening = pieces[-1] + _JOIN + pieces[0] + "".join(f"%d{sep}" for sep in pieces[1:-2])
    runs = list(map(opening.__mod__, map(tuple, (lead.T[starts] + 1).tolist())))
    parts[1:-1:3] = np.array(runs, dtype=object).take(starts.cumsum() - 1).tolist()
    parts[1] = parts[1][len(pieces[-1] + _JOIN):]  # the first record follows no other
    before_value = "%d" + pieces[-2]
    if dim <= n:
        table = np.array([before_value % j for j in range(1, dim + 1)], dtype=object)
        parts[2:-1:3] = table.take(last).tolist()
    else:
        parts[2:-1:3] = map(before_value.__mod__, (last + 1).tolist())
    parts[3:-1:3] = map(float.__repr__, values.tolist())
    parts[0], parts[-1] = _HEAD % (order, dim), pieces[-1] + _TAIL
    return "".join(parts)


def _canonical_tensor(text: str | bytes) -> Tensor | None:
    """The tensor of a document in exactly the layout ``dumps_tensor`` writes, with at least
    one record and maybe followed by JSON whitespace, read from its bytes (a text's encoding)
    straight to index and value arrays; None for any other text and wherever the general
    path would raise.

    The body is read in spans of whole records, each cut just after the closing of a record
    that _JOIN and the next opening follow, about _SPAN characters apart. As each span must
    hold records joined by _JOIN on its own (``_span_records``), the spans join to a valid body.
    """
    if isinstance(text, str):
        text = text.encode()  # a text that is not ASCII gives bytes that are not, refused below
    header, stop = _HEADER.match(text), text.rfind(_TAIL.encode())  # the end found from the end
    if header is None or stop < 0 or text[stop + len(_TAIL):].strip(_SPACE) \
            or not text.isascii():
        return None
    order, dim = int(header[1]), int(header[2])
    start = header.end()
    if stop - start < order:  # a record holds order digits; no template past the text's size
        return None
    pieces = _pieces(order)
    cut, columns, values = (pieces[-1] + _JOIN + pieces[0]).encode(), [], []
    while start < stop:
        at = text.find(cut, start + _SPAN, stop)
        at = stop if at < 0 else at + len(pieces[-1])
        read = _span_records(text[start:at], pieces)
        if read is None:
            return None
        columns.append(read[0])
        values += read[1]
        start = at + len(_JOIN)
    checked = _in_range(order, dim, np.concatenate(columns), values)
    return checked and _nonzero_tensor(order, dim, *checked)


def _span_records(span: bytes, pieces: list[str]) -> tuple[np.ndarray, list] | None:
    """The index components (int64, record by record) and the values of a span that holds k
    records of the template ``pieces`` joined by _JOIN; None for any other span.

    With the number characters deleted, the span must be the records' skeleton joined k times.
    Each maximal run of number characters is a token, and the run of other characters before
    each token must be as long as the template's run before its slot, so each token sits in its
    slot: an empty slot, or a number inside a piece, fails this. Index tokens must be
    ``[1-9][0-9]{0,17}`` and are read digit by digit. The values are left to ``json.loads``, on
    a copy of the span where all but the value tokens, and the commas of the joins, are blanked.
    """
    skeleton, join = "".join(pieces).encode(), _JOIN.encode()
    found = span.translate(None, _NUMBER)
    k = (len(found) + len(join)) // (len(skeleton) + len(join))
    if k < 1 or found + join != (skeleton + join) * k:
        return None
    del found
    flags = np.frombuffer(span.translate(_FLAGS), bool)
    if flags[0] or flags[-1]:
        return None
    bounds = np.flatnonzero(flags[1:] != flags[:-1])
    bounds += 1  # token starts and ends, alternating
    width = len(pieces) - 1  # slots per record: the index components and the value
    if len(bounds) != 2 * k * width:
        return None
    del flags
    # the run before each slot: a closing, the join and an opening, then the pieces between
    runs = [len(pieces[-1] + _JOIN + pieces[0]), *map(len, pieces[1:-1])]
    # per token, the run before it (before the first, the opening) and its length
    before = np.concatenate(([len(pieces[0]) - runs[0]], bounds[:-1]))
    steps = (bounds - before).reshape(k, width, 2)
    if (steps[..., 0] != runs).any():
        return None
    first, size = bounds[0::2].reshape(k, width)[:, :-1].ravel(), steps[:, :-1, 1].ravel()
    digits = np.frombuffer(span, np.uint8)
    longest = int(size.max())
    if longest > 18 or (digits[first] == ord("0")).any():
        return None
    blank = bytearray(span).translate(_BLANK)
    kept = np.frombuffer(blank, np.uint8)
    index = np.zeros(len(first), np.int64)
    for j in range(longest):
        live, at = size > j, first + j
        digit = digits.take(at, mode="clip") - ord("0")  # uint8: every other byte above 9
        if (live & (digit > 9)).any():
            return None
        index = np.where(live, index * 10 + digit, index)
        kept[at[live]] = ord(" ")
    kept[bounds[2 * width - 1:-1:2 * width] + len(pieces[-1])] = ord(",")  # the joins' commas
    kept[0], kept[-1] = ord("["), ord("]")  # over the first opening and the last closing
    try:
        return index, json.loads(blank)
    except ValueError:  # not a JSON number, or an integer too long
        return None


def loads_tensor(text: str | bytes) -> Tensor:
    """The tensor of a document, given as text or as a file's bytes: a canonical one of at
    least _SCANNED characters read directly, any other through ``tensor_from_obj``, which
    raises every refusal. Bytes go there decoded as ``Path.read_text(encoding="utf-8")``
    decodes a file, UTF-8 with universal newlines; bytes that are not UTF-8 raise its
    UnicodeDecodeError."""
    tensor = len(text) >= _SCANNED and _canonical_tensor(text)
    if isinstance(text, bytes) and not tensor:
        text = io.TextIOWrapper(io.BytesIO(text), encoding="utf-8").read()
    return tensor or tensor_from_obj(loads(text))


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
