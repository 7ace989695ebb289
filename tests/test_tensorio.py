"""JSON wire format: canonical round trips and malformed-document errors.

The parser checks each entry once, in bulk, and must raise what the
per-record loop it replaced raised (``loop_tensor_from_obj`` in ``_gen``),
first offender first; the serializer writes from the view and must print
what ``dumps(tensor_to_obj(...))`` prints.
"""
import itertools
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind, Partition, Permutation, core, tensorio
from triblock.errors import BadArity, FormatError, IndexOutOfRange

from _gen import (WIRE_FAULTS, byte_documents, loop_new_tensor, loop_tensor_from_obj, rand_tensor,
                  rand_wire_doc)

MALFORMED = [
    [],
    {"order": 2, "dim": 2},
    {"order": "2", "dim": 2, "entries": []},
    {"order": 2, "dim": 2.5, "entries": []},
    {"order": 2, "dim": 2, "entries": {}},
    {"order": 2, "dim": 2, "entries": [{"i": [1, 1]}]},
    {"order": 2, "dim": 2, "entries": [{"v": 1.0}]},
    {"order": 2, "dim": 2, "entries": [{"i": (1, 1), "v": 1.0}]},
    {"order": 2, "dim": 2, "entries": [{"i": [1, 1], "v": "1"}]},
    {"order": 2, "dim": 2, "entries": [{"i": [1, 1], "v": True}]},
]
NOT_DOUBLES = ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="10**400")]
OUT_OF_DOMAIN = [{"order": 2, "dim": 2, "entries": [{"i": [1, 1, 1], "v": 1.0}]},
                 {"order": 2, "dim": 2, "entries": [{"i": [1, 3], "v": 1.0}]}]


def value_doc(text: str):
    return tensorio.loads('{"order": 2, "dim": 1, "entries": [{"i": [1, 1], "v": %s}]}' % text)


def outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # the class and message are what is compared
        return exc


def same_outcome(got, want) -> bool:
    """The same error class and message, or the same entries in the same order with the
    same read-only view, array for array; the parsed tensor's view is handed on, its index
    rows column-major."""
    if isinstance(want, Exception) or isinstance(got, Exception):
        return type(got) is type(want) and str(got) == str(want)
    handed, built = got.__dict__.get("coo"), want.coo
    return ((got.order, got.dim) == (want.order, want.dim)
            and [(k, v.hex()) for k, v in got.entries.items()]
            == [(k, v.hex()) for k, v in want.entries.items()]
            and handed is not None and handed.idx.flags.f_contiguous
            and all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                    and not a.flags.writeable for a, b in zip(handed, built)))


class TestTensorRoundTrip:
    def test_fixture_files_are_canonical(self, fixtures_dir):
        for name in ("ex24.json", "ex31.json", "ex61.json"):
            text = (fixtures_dir / name).read_text()
            tensor = tensorio.loads_tensor(text)
            assert tensorio.dumps_tensor(tensor) + "\n" == text

    def test_entries_come_back_sorted(self):
        a = tb.new_tensor(2, 2, [((2, 1), 3.0), ((1, 2), -1.0)])
        doc = tensorio.tensor_to_obj(a)
        assert doc == {"order": 2, "dim": 2,
                       "entries": [{"i": [1, 2], "v": -1.0}, {"i": [2, 1], "v": 3.0}]}

    def test_parse_then_serialize_is_stable(self):
        text = tensorio.dumps_tensor(tb.new_tensor(3, 2, [((1, 2, 1), 0.1)]))
        again = tensorio.dumps_tensor(tensorio.loads_tensor(text))
        assert again == text

    def test_values_survive_exactly(self):
        a = tb.new_tensor(2, 1, [((1, 1), 1 / 3)])
        back = tensorio.loads_tensor(tensorio.dumps_tensor(a))
        assert back.entries[(1, 1)] == 1 / 3

    def test_integer_values_become_floats(self):
        back = tensorio.tensor_from_obj(
            {"order": 2, "dim": 1, "entries": [{"i": [1, 1], "v": 2}]})
        assert back.entries[(1, 1)] == 2.0

    def test_zero_entries_are_dropped(self):
        back = tensorio.tensor_from_obj(
            {"order": 2, "dim": 1, "entries": [{"i": [1, 1], "v": 0.0}]})
        assert back.nnz == 0


class TestTensorErrors:
    @pytest.mark.parametrize("doc", MALFORMED)
    def test_malformed_documents(self, doc):
        with pytest.raises(FormatError):
            tensorio.tensor_from_obj(doc)

    @pytest.mark.parametrize("text", NOT_DOUBLES)
    def test_values_a_double_cannot_hold(self, text):
        with pytest.raises(FormatError, match="finite"):
            tensorio.tensor_from_obj(value_doc(text))

    def test_invalid_json_text(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            tensorio.loads("{not json")

    def test_integer_literal_past_the_digit_limit(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            tensorio.loads("1" * 5000)

    def test_domain_checks_still_apply(self):
        with pytest.raises(BadArity):
            tensorio.tensor_from_obj(OUT_OF_DOMAIN[0])
        with pytest.raises(IndexOutOfRange):
            tensorio.tensor_from_obj(OUT_OF_DOMAIN[1])

    @pytest.mark.parametrize("header", [{"order": True}, {"dim": False}])
    def test_bool_order_or_dim(self, header):
        # the loop took order True for 1, and every kernel then failed on the tensor
        doc = dict({"order": 1, "dim": 2, "entries": [{"i": [1], "v": 2.0}]}, **header)
        with pytest.raises(FormatError, match="^order and dim must be integers$"):
            tensorio.tensor_from_obj(doc)

    def test_errors_match_the_loop(self):
        docs = MALFORMED + OUT_OF_DOMAIN + [value_doc(text) for text in
                                            ["NaN", "Infinity", "-Infinity", "1" + "0" * 400]]
        for doc in docs:
            want = outcome(loop_tensor_from_obj, doc)
            assert isinstance(want, tb.errors.TriblockError), doc
            assert same_outcome(outcome(tensorio.tensor_from_obj, doc), want), doc


def wire_docs(seed: int, trials: int):
    """Seeded documents: a third valid, a third with one fault, a third with two faults of
    different categories, each at a random position."""
    rng = random.Random(seed)
    categories = [*WIRE_FAULTS, "repeat", "header"]
    for trial in range(trials):
        yield rng, rand_wire_doc(rng, rng.sample(categories, trial % 3))


class TestAgainstLoop:
    def test_documents(self):
        raised = set()
        for _, doc in wire_docs(1101, 600):
            got, want = outcome(tensorio.tensor_from_obj, doc), outcome(loop_tensor_from_obj, doc)
            assert same_outcome(got, want), doc
            raised.add(type(want).__name__)
        # every class the loop raises turns up in the ensemble
        assert raised >= {"Tensor", "FormatError", "BadArity", "IndexOutOfRange",
                          "DuplicateIndex", "OrderTooSmall", "DimensionMismatch"}

    def test_pairs(self):
        # new_tensor on the same entries as (tuple, value) pairs, some components NumPy ints
        for rng, doc in wire_docs(1102, 600):
            records = doc.get("entries")
            if not isinstance(records, list) or not all(
                    isinstance(r, dict) and isinstance(r.get("i"), list) for r in records):
                continue
            order, dim = doc["order"], doc["dim"]
            if not isinstance(order, int) or not isinstance(dim, int):
                continue
            pairs = [(tuple(np.int64(i) if type(i) is int and abs(i) < 2 ** 62
                            and rng.random() < 0.2 else i for i in r["i"]), r.get("v"))
                     for r in records]
            want = outcome(loop_new_tensor, order, dim, pairs)
            assert same_outcome(outcome(tb.new_tensor, order, dim, pairs), want), pairs


class TestCheckedOnce:
    DENSE = tensorio.dumps(tensorio.tensor_to_obj(rand_tensor(random.Random(5), 6, 3, 1.0)))

    def test_view_is_handed_on(self):
        for t in (tensorio.loads_tensor(self.DENSE),
                  tb.new_tensor(3, 2, [((2, 1, 2), 1.5), ((1, 1, 1), 0.0), ((1, 2, 2), -2.0)])):
            assert "coo" in t.__dict__
            assert same_outcome(t, tb.Tensor(t.order, t.dim, t.entries))

    def test_no_entry_is_checked_one_by_one(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return validated(*args)

        validated = core._validated_index
        monkeypatch.setattr(core, "_validated_index", counted)
        t = tensorio.loads_tensor(self.DENSE)
        assert t.nnz == 6 ** 3 and calls == []


MUTATION_ALPHABET = '0123456789.-+eE,[]{}":iv \t\n'


def mutated(rng: random.Random, text: str) -> str:
    """The text after 1-3 single-character replacements, insertions and deletions."""
    for _ in range(rng.randint(1, 3)):
        k, edit = rng.randrange(len(text) + 1), rng.randrange(3)
        keep = k + 1 if edit == 1 else k  # a replacement or deletion drops text[k]
        text = text[:k] + ("" if edit == 2 else rng.choice(MUTATION_ALPHABET)) + text[keep:]
    return text


def general_read(text: str):
    return tensorio.tensor_from_obj(tensorio.loads(text))


class TestCanonicalReader:
    """Documents in the layout ``dumps_tensor`` writes are read without the object tree; the
    reader returns None on every other text, and never raises."""

    def assert_same_as_general(self, text: str) -> bool:
        """The text, and its bytes, read as the general path reads the text: directly where
        the scan accepts them (at any length), and through ``loads_tensor``."""
        fast = tensorio._canonical_tensor(text)  # raises nothing, whatever the text
        want = outcome(general_read, text)
        for doc in (text, text.encode()):
            assert same_outcome(outcome(tensorio.loads_tensor, doc), want), doc
            read = tensorio._canonical_tensor(doc)
            assert (read is None) == (fast is None), doc
            assert read is None or same_outcome(read, want), doc
        return fast is not None

    def test_seeded_documents_and_their_mutations(self):
        read = {"documents": 0, "mutations": 0}
        for rng, doc in wire_docs(1104, 600):
            text = json.dumps(doc)
            read["documents"] += self.assert_same_as_general(text)
            for _ in range(3):
                read["mutations"] += self.assert_same_as_general(mutated(rng, text))
        # the valid documents with records, and a mutation that leaves one valid, read directly
        assert read["documents"] > 100 and read["mutations"] > 50, read

    @pytest.mark.parametrize("text", [
        # deleting the structural characters would merge -0.0 and 6 into -0.06
        '{"order": 2, "dim": 2, "entries": [{"i": [1, 1], "v": -0.0}6, {"i": [1, 2], "v": 1.0}]}',
        # mapping them to spaces would let the value's number sit before the colon
        '{"order": 2, "dim": 2, "entries": [{"i": [1, 2], "v"3: }]}',
        # valid JSON, but a number split from its separator's space
        '{"order": 3, "dim": 3, "entries": [{"i": [1,2 , 3], "v": 1.0}]}',
        '{"order": 2, "dim": 2, "entries": [{"i": [1, 2], "v": 0}, {"i": [1, 2], "v": 1.0}]}',
        '{"order": 2, "dim": 2, "entries": [{"i": [1, 3], "v": 1.0}]}',
        '{"order": 2, "dim": 2, "entries": [{"i": [1, 2.0], "v": 1.0}]}',
        '{"order": 2, "dim": 2, "entries": [{"i": [1, 2], "v": 1e400}]}',
        '{"order": 2, "dim": 2, "entries": [{"i": [1, 2], "v": 01}]}',
        '{"order": 2, "dim": 2, "entries": [{"i": [1, 2], "v": %s}]}' % ("1" * 5000),
        '{"order": 1, "dim": 2, "entries": [{"i": [%d], "v": 1.0}]}' % 2 ** 70,
        ' {"order": 1, "dim": 2, "entries": [{"i": [1], "v": 1.0}]}',
        '{"order": 01, "dim": 2, "entries": [{"i": [1], "v": 1.0}]}',
        '{"order": 1, "dim": 2, "entries": []}',
    ])
    def test_refused_or_not_canonical(self, text):
        assert not self.assert_same_as_general(text)

    @pytest.mark.parametrize("text", [
        '{"order": 2, "dim": 2, "entries": [{"i": [2, 1], "v": 0}, {"i": [1, 2], "v": -0.0}, '
        '{"i": [1, 1], "v": 2}, {"i": [2, 2], "v": -1.5e-300}]}\n \t\r\n',
        '{"order": 1, "dim": 3, "entries": [{"i": [3], "v": 1E+2}]}',
    ])
    def test_read_directly(self, text):
        assert self.assert_same_as_general(text)

    def test_dense_document_skips_the_general_path(self, monkeypatch):
        text = TestCheckedOnce.DENSE
        want = tensorio.loads_tensor(text)
        monkeypatch.setattr(tensorio, "tensor_from_obj", None)
        assert same_outcome(tensorio.loads_tensor(text), want)

    # loads_tensor scans a document from _SCANNED characters on; a shorter one, which the
    # general path reads faster, goes there straight
    @pytest.mark.parametrize("pad, scanned", [(-1, False), (0, True), (1, True)])
    def test_scanned_from_the_crossover(self, monkeypatch, pad, scanned):
        text = tensorio.dumps_tensor(tb.Tensor.from_dense(np.arange(1.0, 28.0).reshape(3, 3, 3)))
        text += " " * (tensorio._SCANNED + pad - len(text))  # JSON whitespace after the tail
        assert self.assert_same_as_general(text)
        calls, scan, want = [], tensorio._canonical_tensor, general_read(text)
        monkeypatch.setattr(tensorio, "_canonical_tensor",
                            lambda doc: calls.append(type(doc)) or scan(doc))
        if scanned:
            monkeypatch.setattr(tensorio, "tensor_from_obj", None)
        for doc in (text, text.encode()):
            assert same_outcome(tensorio.loads_tensor(doc), want)
        assert calls == ([str, bytes] if scanned else [])

    # the body is scanned in spans cut after a record's closing; each span must pass alone
    @pytest.mark.parametrize("span", [1, 64, 300])
    def test_seeded_documents_in_short_spans(self, monkeypatch, span):
        monkeypatch.setattr(tensorio, "_SPAN", span)
        self.test_seeded_documents_and_their_mutations()

    CUT = '}, {"i": ['
    # one fault each: (name, a pattern of the record and what its first match becomes)
    RECORD_FAULTS = [
        ("digit inside a piece", '"v": ', '"v"7: '),
        ("digit inside the opening", r'\{"i": \[', '{"i"3: ['),
        ("deleted separator byte", ", ", ","),
        ("empty index slot", r"\[\d+", "["),
        ("empty value slot", r": [^}]*\}", ": }"),
        ("0-led index", r"\[", "[0"),
        ("19-digit index", r"\[\d+", "[1000000000000000000"),
        ("value past the double range", r": [^}]*\}", ": 1e400}"),
    ]
    JOIN_FAULTS = [("digit inside the join", '}, {', '}, 5{'),
                   ("deleted separator byte in the join", '}, {', '},{'),
                   ("deleted brace of the join", '}, {', '}, ')]

    @staticmethod
    def records_around_cut(text: str) -> tuple[int, int, int]:
        """Where the record before the first cut starts, where the cut falls (after that
        record's closing) and where the record after it ends, for the patched span."""
        body = text.index("[", text.index('"entries"')) + 1
        cut = text.find(TestCanonicalReader.CUT, body + tensorio._SPAN) + 1
        assert cut > 0
        return text.rindex('{"i": [', 0, cut), cut, text.index("}", cut + 2) + 1

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("fault", RECORD_FAULTS, ids=[f[0] for f in RECORD_FAULTS])
    def test_fault_next_to_a_cut(self, monkeypatch, where, fault):
        monkeypatch.setattr(tensorio, "_SPAN", 300)
        text = TestCheckedOnce.DENSE
        assert self.assert_same_as_general(text)
        first, cut, last = self.records_around_cut(text)
        start, end = (first, cut) if where == "before" else (cut + 2, last)
        _, pattern, replacement = fault
        record, edits = re.subn(pattern, replacement, text[start:end], count=1)
        assert edits == 1
        assert not self.assert_same_as_general(text[:start] + record + text[end:])

    @pytest.mark.parametrize("fault", JOIN_FAULTS, ids=[f[0] for f in JOIN_FAULTS])
    def test_fault_across_a_cut(self, monkeypatch, fault):
        monkeypatch.setattr(tensorio, "_SPAN", 300)
        text = TestCheckedOnce.DENSE
        _, cut, _ = self.records_around_cut(text)
        _, old, new = fault
        assert text.startswith(old, cut - 1)
        assert not self.assert_same_as_general(text[:cut - 1] + new + text[cut - 1 + len(old):])

    @pytest.mark.parametrize("index", ["-1", "+1", "01", "0", "1.0", "1e2", "1E2",
                                       "1000000000000000000", "18446744073709551617",
                                       "9" * 30])
    def test_index_text_the_general_path_decides(self, index):
        # under the largest dim the header admits; 2^64 + 1 would wrap to 1 in int64
        text = '{"order": 2, "dim": %d, "entries": [{"i": [1, 2], "v": 1.0}, ' \
               '{"i": [%s, 3], "v": 2.0}]}' % (10 ** 18 - 1, index)
        assert not self.assert_same_as_general(text)

    @pytest.mark.parametrize("body", ['5{"i": [1], "v": 1.0}', '{"i": [1], "v": 1.0}5',
                                      '5555555{"i": [], "v": 1.0}5',
                                      '5{"i": [1], "v": 1.0}, {"i": [2], "v": 2.0}5'])
    def test_numbers_outside_the_records(self, body):
        assert not self.assert_same_as_general('{"order": 1, "dim": 9, "entries": [%s]}' % body)

    @pytest.mark.parametrize("span", [1, 1 << 18])
    def test_indices_of_every_length_up_to_18_digits(self, monkeypatch, span):
        monkeypatch.setattr(tensorio, "_SPAN", span)
        dim = 10 ** 18 - 1
        rng = random.Random(1105)
        firsts = [rng.randrange(10 ** (k - 1), 10 ** k) for k in range(1, 19)] + [dim]
        records = ", ".join('{"i": [%d, %d], "v": %r}' % (i, rng.randrange(1, dim + 1), 0.5 + k)
                            for k, i in enumerate(firsts))
        text = '{"order": 2, "dim": %d, "entries": [%s]}' % (dim, records)
        assert self.assert_same_as_general(text)
        assert [i for i, _ in tensorio.loads_tensor(text).entries] == firsts


BYTE_DOCUMENTS = byte_documents()


class TestBytesIn:
    """``loads_tensor`` on a file's bytes gives what it gives on the file's text as
    ``Path.read_text(encoding="utf-8")`` reads it, or raises the UnicodeDecodeError that
    reading raises."""

    @pytest.mark.parametrize("data, kind", [d[1:] for d in BYTE_DOCUMENTS],
                             ids=[d[0] for d in BYTE_DOCUMENTS])
    def test_read_as_the_file_s_text(self, tmp_path, data, kind):
        path = tmp_path / "tensor.json"
        path.write_bytes(data)
        want = outcome(lambda: tensorio.loads_tensor(path.read_text(encoding="utf-8")))
        assert type(want).__name__ == kind
        assert same_outcome(outcome(tensorio.loads_tensor, data), want)


class TestRepeats:
    """A repeated index is refused with the loop's ``DuplicateIndex`` message, by
    ``new_tensor`` and by ``loads_tensor`` on a canonical document (which the scan declines),
    whether the entries come sorted or not: with integer codes of the index rows (dim 6) and
    with their ranks past int64 (dim 10^9)."""

    @staticmethod
    def pairs(case: str, dim: int) -> list:
        rng = random.Random(1116)
        components = sorted(rng.sample(range(1, dim + 1), 6))
        keys = sorted(rng.sample(list(itertools.product(components, repeat=3)), 100))
        pairs = [(key, 0.5 + k) for k, key in enumerate(keys)]
        if case == "adjacent in sorted entries":
            pairs.insert(51, (keys[50], 2.0))
        elif case == "far from its twin in shuffled entries":
            rng.shuffle(pairs)
            pairs.append((pairs[1][0], 2.0))
        else:  # first given the value 0, then given another right after
            pairs[30] = (keys[30], 0.0)
            pairs.insert(31, (keys[30], 2.0))
        return pairs

    @pytest.mark.parametrize("dim", [6, 10 ** 9])
    @pytest.mark.parametrize("case", ["adjacent in sorted entries",
                                      "far from its twin in shuffled entries",
                                      "first given the value 0"])
    def test_refused_as_by_the_loop(self, case, dim):
        assert (dim ** 3 > np.iinfo(np.int64).max) == (dim > 6)
        pairs = self.pairs(case, dim)
        want = outcome(loop_new_tensor, 3, dim, pairs)
        assert isinstance(want, tb.errors.DuplicateIndex)
        assert same_outcome(outcome(tb.new_tensor, 3, dim, pairs), want)
        text = '{"order": 3, "dim": %d, "entries": [%s]}' % (dim, ", ".join(
            '{"i": [%d, %d, %d], "v": %r}' % (*key, value) for key, value in pairs))
        assert len(text) >= tensorio._SCANNED and tensorio._canonical_tensor(text) is None
        for doc in (text, text.encode()):
            assert same_outcome(outcome(tensorio.loads_tensor, doc), want)


def canonical_text(order: int, dim: int, values: list[str]) -> str:
    """A document in the canonical layout, written out by hand: one record per index tuple in
    sorted order, each with the value token given."""
    indices = itertools.product(range(1, dim + 1), repeat=order)
    records = ", ".join('{"i": [%s], "v": %s}' % (", ".join(map(str, index)), value)
                        for index, value in zip(indices, values))
    return '{"order": %d, "dim": %d, "entries": [%s]}' % (order, dim, records)


# values at the edges of the double range, signed zeros and JSON's other number forms
EDGE_VALUES = ["5e-324", "-2.5e-320", "2.2250738585072014e-308", "1e+308", "-1e308",
               "1.7976931348623157e+308", "-0.0", "0", "2", "-7", "1E+2", "3.5E-3"]


class TestCanonicalReaderAtScale:
    """Large canonical documents, scanned in many spans, read directly as the general path
    reads them."""

    @staticmethod
    def text(order: int, dim: int, seed: int) -> str:
        rng = random.Random(seed)
        values = [repr(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300))
                  for _ in range(dim ** order)]
        for k in rng.sample(range(len(values)), 40 * len(EDGE_VALUES)):
            values[k] = EDGE_VALUES[k % len(EDGE_VALUES)]
        return canonical_text(order, dim, values)

    @pytest.mark.parametrize("order, dim", [(3, 40), (2, 300)])
    def test_reads_as_the_general_path(self, monkeypatch, order, dim):
        text = self.text(order, dim, 1106 + order)
        assert len(text) > 4 * tensorio._SPAN
        want = general_read(text)
        monkeypatch.setattr(tensorio, "tensor_from_obj", None)
        assert same_outcome(tensorio.loads_tensor(text), want)

    def test_peak_memory(self):
        # as the CLI prints it, a document ends in a newline: its end is found without a copy;
        # the CLI reads the bytes, and a text is read through its encoding
        rng = np.random.default_rng(1107)
        text = tensorio.dumps_tensor(tb.Tensor.from_dense(rng.uniform(0.01, 1.0, (40,) * 3)))
        for doc in (text, text + "\n", text.encode(), (text + "\n").encode()):
            tracemalloc.start()
            try:
                tensorio.loads_tensor(doc)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * len(text), (peak, len(text), doc[-1:])


def in_index_order(tensor) -> bool:
    """Whether the tensor's view lists its entries sorted by index, as the writer needs them."""
    rows = list(map(tuple, tensor.coo.idx.tolist()))
    return rows == sorted(rows)


# values at the edges of the double range, subnormals, and integers the raw constructor keeps
EDGE_DOUBLES = [5e-324, -5e-324, 2.5e-320, -1e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 2, -7, 2 ** 53 + 1, 1e16, 0.1]


class TestSerializer:
    @staticmethod
    def assert_writes_the_dict_document(t):
        """``dumps_tensor``, ``dumps_blocks`` and ``dumps_normal_form`` print what ``dumps`` of
        the dict documents prints, byte for byte."""
        doc = tensorio.tensor_to_obj(t)
        assert tensorio.dumps_tensor(t) == tensorio.dumps(doc)
        assert tensorio.dumps_blocks([t, t]) == tensorio.dumps({"blocks": [doc, doc]})
        nf = tb.NormalForm(Permutation((2, 1)), Partition((1, 1)), BlockKind.UTB3, (t, t))
        assert tensorio.dumps_normal_form(nf) == tensorio.dumps(tensorio.normal_form_to_obj(nf))

    def test_matches_the_dict_document(self):
        rng = random.Random(1103)
        for _ in range(60):
            order, dim = rng.randint(1, 4), rng.randint(1, 5)
            keys = [idx for idx in itertools.product(range(1, dim + 1), repeat=order)
                    if rng.random() < 0.4]
            rng.shuffle(keys)
            values = [rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300) for _ in keys]
            t = tb.Tensor(order, dim, dict(zip(keys, values)))
            doc = tensorio.tensor_to_obj(t)
            assert tensorio.dumps_tensor(t) == tensorio.dumps(doc)
            assert "entries" not in t.__dict__  # both write from the view
            assert doc["entries"] == [{"i": list(k), "v": v} for k, v in sorted(t.entries.items())]
            p = tb.Partition((dim,)) if dim == 1 else tb.Partition((1, dim - 1))
            blocks = tb.diagonal_blocks(t, p)
            assert tensorio.dumps_blocks(blocks) == tensorio.dumps(
                {"blocks": [tensorio.tensor_to_obj(b) for b in blocks]})

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_orders_and_views(self, order):
        # one record per run of leading components, many records per run, and the last
        # component from a table (dim <= nnz) or formatted per record; views in index order
        # and views the writer sorts
        rng = random.Random(1108 + order)
        dim = [40, 9, 5, 4, 3][order - 1]
        cells = list(itertools.product(range(1, dim + 1), repeat=order))
        for density in (0.05, 0.5, 1.0):
            keys = [k for k in cells if rng.random() < density] or cells[:1]
            rng.shuffle(keys)
            values = [rng.choice(EDGE_DOUBLES) if rng.random() < 0.2
                      else rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300) for _ in keys]
            shuffled = tb.Tensor(order, dim, dict(zip(keys, values)))
            read = tensorio.loads_tensor(tensorio.dumps_tensor(shuffled))
            dense = tb.Tensor.from_dense(np.reshape(
                [rng.choice([0.0, 1.5, -2.0]) for _ in cells], (dim,) * order))
            sigma = Permutation(tuple(rng.sample(range(1, dim + 1), dim)))
            moved = tb.permute_similar(read, sigma)
            sub = tb.principal_subtensor(read, sorted(rng.sample(range(1, dim + 1), dim - 1))
                                         if dim > 1 else [1])
            assert in_index_order(read) and in_index_order(dense)
            if order > 1 and density == 1.0:  # all but order 1 come in row order only
                assert not in_index_order(shuffled) and not in_index_order(moved)
            for t in (shuffled, read, dense, moved, sub):
                self.assert_writes_the_dict_document(t)

    def test_components_of_many_digits(self):
        rng = random.Random(1113)
        for order in (1, 2, 3, 5):
            rows = [rng.randrange(1, 10 ** 9 + 1) for _ in range(3)]  # rows repeat
            keys = {(rng.choice(rows), *(rng.randrange(1, 10 ** 9 + 1) for _ in range(order - 1))):
                    v for v in EDGE_DOUBLES * 20}
            keys[(10 ** 9,) * order] = 1.0
            keys[(1,) * order] = -1.0
            t = tb.Tensor(order, 10 ** 9, keys)
            assert order == 1 or not in_index_order(t)
            self.assert_writes_the_dict_document(t)
            self.assert_writes_the_dict_document(tensorio.loads_tensor(tensorio.dumps_tensor(t)))

    @pytest.mark.parametrize("entries", [{}, {(2, 1, 3): 5e-324}, {(1, 1, 1): -2}],
                             ids=["nnz0", "nnz1", "nnz1-integer"])
    def test_no_entry_or_one(self, entries):
        for t in (tb.Tensor(3, 3, entries), tb.new_tensor(3, 3, list(entries.items()))):
            self.assert_writes_the_dict_document(t)

    def test_edge_values(self):
        for dim in (4, 20):  # per record, and from the table
            keys = list(itertools.product(range(1, dim + 1), repeat=2))[:len(EDGE_DOUBLES)]
            t = tb.Tensor(2, dim, dict(zip(keys, EDGE_DOUBLES)))
            assert [v for _, v in sorted(t.entries.items())] == [float(v) for v in EDGE_DOUBLES]
            self.assert_writes_the_dict_document(t)

    def test_normal_form_matches_the_dict_document(self, ex31, ex61):
        for nf in (tb.normal_form_3rd(ex31), tb.normal_form_2nd(ex61), tb.normal_form_3rd(ex61)):
            want = tensorio.dumps(tensorio.normal_form_to_obj(nf))
            assert tensorio.dumps_normal_form(nf) == want

    def test_values_print_as_doubles(self):
        # the raw constructor keeps an int value; the text holds the double it parses back as
        t = tb.Tensor(2, 1, {(1, 1): 2})
        text = tensorio.dumps_tensor(t)
        assert text == '{"order": 2, "dim": 1, "entries": [{"i": [1, 1], "v": 2.0}]}'
        assert tensorio.dumps_tensor(tensorio.loads_tensor(text)) == text


class TestSpectrumDocuments:
    def test_factored_spectrum_shape(self):
        a = tb.new_tensor(3, 2, [((1, 1, 1), 2.0), ((2, 2, 2), 3.0)])
        spec = tb.spectrum_blocked(a, Partition((1, 1)), BlockKind.UTB1)
        doc = tensorio.spectrum_to_obj(spec)
        assert doc == {"items": [{"eigs": [2.0], "exp": 2}, {"eigs": [3.0], "exp": 2}],
                       "degree": 4}


class TestNormalFormDocuments:
    def test_block_form_embeds_tensors(self, ex31):
        doc = tensorio.normal_form_to_obj(tb.normal_form_3rd(ex31))
        assert doc["sigma"] == [1, 2]
        assert doc["partition"] == [1, 1]
        assert doc["kind"] == "utb3"
        assert doc["blocks"] == [
            {"order": 3, "dim": 1, "entries": [{"i": [1, 1, 1], "v": 1.0}]},
            {"order": 3, "dim": 1, "entries": []},
        ]


def hypergraph_to_obj(graph: tb.Hypergraph) -> dict:
    """The hypergraph document of ``graph``, each edge sorted."""
    return {"k": graph.k, "n": graph.n, "edges": [sorted(edge) for edge in graph.edges]}


class TestHypergraphDocuments:
    def test_fixture_files_are_canonical(self, fixtures_dir):
        for name in ("hyper_two_triangles.json", "hyper_chain.json"):
            text = (fixtures_dir / name).read_text()
            graph = tensorio.hypergraph_from_obj(tensorio.loads(text))
            assert tensorio.dumps(hypergraph_to_obj(graph)) + "\n" == text

    def test_edges_are_sorted_on_output(self):
        graph = tb.Hypergraph.from_edge_lists(3, 4, [[4, 2, 1]])
        assert hypergraph_to_obj(graph)["edges"] == [[1, 2, 4]]

    @pytest.mark.parametrize("doc", [
        7,
        {"k": 3, "n": 6},
        {"k": "3", "n": 6, "edges": []},
        {"k": 3, "n": 6, "edges": [[1, 2, "3"]]},
        {"k": 3, "n": 6, "edges": [(1, 2, 3)]},
        {"k": 3, "n": 3, "edges": [[True, 2, 3]]},
        {"k": 3, "n": True, "edges": []},
        {"k": True, "n": 3, "edges": []},
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(FormatError):
            tensorio.hypergraph_from_obj(doc)

