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

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind, Partition, Permutation, core, tensorio
from triblock.errors import BadArity, FormatError, IndexOutOfRange

from _gen import WIRE_FAULTS, loop_new_tensor, loop_tensor_from_obj, rand_tensor, rand_wire_doc

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
        fast = tensorio._canonical_tensor(text)  # raises nothing, whatever the text
        got, want = outcome(tensorio.loads_tensor, text), outcome(general_read, text)
        assert same_outcome(got, want), text
        assert fast is None or same_outcome(fast, want), text
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


class TestSerializer:
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

