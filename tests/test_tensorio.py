"""JSON wire format: canonical round trips and malformed-document errors."""
import math

import pytest

import triblock as tb
from triblock import BlockKind, Partition, Permutation, tensorio
from triblock.errors import BadArity, FormatError, IndexOutOfRange


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
    @pytest.mark.parametrize("doc", [
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
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(FormatError):
            tensorio.tensor_from_obj(doc)

    @pytest.mark.parametrize("text", [
        "NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="10**400")])
    def test_values_a_double_cannot_hold(self, text):
        doc = tensorio.loads('{"order": 2, "dim": 1, "entries": [{"i": [1, 1], "v": %s}]}' % text)
        with pytest.raises(FormatError, match="finite"):
            tensorio.tensor_from_obj(doc)

    def test_invalid_json_text(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            tensorio.loads("{not json")

    def test_integer_literal_past_the_digit_limit(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            tensorio.loads("1" * 5000)

    def test_domain_checks_still_apply(self):
        with pytest.raises(BadArity):
            tensorio.tensor_from_obj(
                {"order": 2, "dim": 2, "entries": [{"i": [1, 1, 1], "v": 1.0}]})
        with pytest.raises(IndexOutOfRange):
            tensorio.tensor_from_obj(
                {"order": 2, "dim": 2, "entries": [{"i": [1, 3], "v": 1.0}]})


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
