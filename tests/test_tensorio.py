"""JSON wire format: canonical round trips and malformed-document errors.

The parser checks each entry once, in bulk, and must raise what the
per-record loop it replaced raised (``loop_tensor_from_obj`` in ``_gen``),
first offender first; the serializer writes from the view and must print
what ``dumps(tensor_to_obj(...))`` prints.
"""
import itertools
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
    same read-only view, array for array; the parsed tensor's view is handed on."""
    if isinstance(want, Exception) or isinstance(got, Exception):
        return type(got) is type(want) and str(got) == str(want)
    handed, built = got.__dict__.get("coo"), want.coo
    return ((got.order, got.dim) == (want.order, want.dim)
            and [(k, v.hex()) for k, v in got.entries.items()]
            == [(k, v.hex()) for k, v in want.entries.items()]
            and handed is not None and handed.bounds == built.bounds
            and all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                    and not a.flags.writeable for a, b in zip(handed[:2], built[:2])))


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
            assert tensorio.dumps_tensor(t) == tensorio.dumps(tensorio.tensor_to_obj(t))
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


class TestHypergraphDocuments:
    def test_fixture_files_are_canonical(self, fixtures_dir):
        for name in ("hyper_two_triangles.json", "hyper_chain.json"):
            text = (fixtures_dir / name).read_text()
            graph = tensorio.hypergraph_from_obj(tensorio.loads(text))
            assert tensorio.dumps(tensorio.hypergraph_to_obj(graph)) + "\n" == text

    def test_edges_are_sorted_on_output(self):
        graph = tb.Hypergraph.from_edge_lists(3, 4, [[4, 2, 1]])
        assert tensorio.hypergraph_to_obj(graph)["edges"] == [[1, 2, 4]]

    @pytest.mark.parametrize("doc", [
        7,
        {"k": 3, "n": 6},
        {"k": "3", "n": 6, "edges": []},
        {"k": 3, "n": 6, "edges": [[1, 2, "3"]]},
        {"k": 3, "n": 6, "edges": [(1, 2, 3)]},
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(FormatError):
            tensorio.hypergraph_from_obj(doc)


class TestPartitionDocuments:
    def test_list_of_parts(self):
        assert tensorio.partition_from_obj([2, 1]) == Partition((2, 1))

    @pytest.mark.parametrize("doc", ["2,1", [2.0, 1], {"parts": [2, 1]}])
    def test_malformed_documents(self, doc):
        with pytest.raises(FormatError):
            tensorio.partition_from_obj(doc)
