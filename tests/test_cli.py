"""Command line behavior: output documents, exit codes, error envelopes."""
import ast
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import triblock as tb
from triblock import cli, tensorio

from _gen import UNDERFLOWING, zigzag

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli there
    import tomli as tomllib

ROOT = Path(__file__).resolve().parent.parent


def write_tensor(directory, name, tensor) -> str:
    path = directory / name
    path.write_text(tensorio.dumps_tensor(tensor) + "\n")
    return str(path)


def write_matrix(directory, name, rows) -> str:
    entries = [((i, j), float(v)) for i, row in enumerate(rows, start=1)
               for j, v in enumerate(row, start=1)]
    return write_tensor(directory, name, tb.new_tensor(2, len(rows), entries))


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out else None
    return code, doc


@pytest.fixture
def ex31_path(fixtures_dir) -> str:
    return str(fixtures_dir / "ex31.json")


@pytest.fixture
def ex61_path(fixtures_dir) -> str:
    return str(fixtures_dir / "ex61.json")


class TestClassify:
    def test_holds(self, capsys, ex31_path):
        code, doc = run_cli(capsys, "classify", "--tensor", ex31_path,
                            "--partition", "1,1", "--kind", "utb3")
        assert code == 0 and doc == {"result": True}

    def test_fails(self, capsys, ex31_path):
        code, doc = run_cli(capsys, "classify", "--tensor", ex31_path,
                            "--partition", "1,1", "--kind", "utb1")
        assert code == 0 and doc == {"result": False}

    def test_unknown_kind_is_a_usage_error(self, capsys, ex31_path):
        code, doc = run_cli(capsys, "classify", "--tensor", ex31_path,
                            "--partition", "1,1", "--kind", "upper")
        assert code == 2 and doc is None

    def test_bad_partition_is_a_usage_error(self, capsys, ex31_path):
        code, doc = run_cli(capsys, "classify", "--tensor", ex31_path,
                            "--partition", "1;1", "--kind", "utb3")
        assert code == 2 and doc is None


class TestBlocks:
    def test_diagonal_blocks(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.diagonal_tensor(3, [2.0, 3.0]))
        code, doc = run_cli(capsys, "blocks", "--tensor", path, "--partition", "1,1")
        assert code == 0
        assert doc == {"blocks": [
            {"order": 3, "dim": 1, "entries": [{"i": [1, 1, 1], "v": 2.0}]},
            {"order": 3, "dim": 1, "entries": [{"i": [1, 1, 1], "v": 3.0}]},
        ]}

    def test_partition_must_fit(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.diagonal_tensor(3, [2.0, 3.0]))
        code, doc = run_cli(capsys, "blocks", "--tensor", path, "--partition", "1,2")
        assert code == 1 and doc["error"] == "DimensionMismatch"


class TestProduct:
    def test_matrix_product(self, capsys, tmp_path):
        left = write_matrix(tmp_path, "l.json", [[1, 2], [0, 1]])
        right = write_matrix(tmp_path, "r.json", [[1, 0], [3, 1]])
        code, doc = run_cli(capsys, "product", left, right)
        assert code == 0
        assert doc == tensorio.tensor_to_obj(
            tb.new_tensor(2, 2, [((1, 1), 7.0), ((1, 2), 2.0),
                                 ((2, 1), 3.0), ((2, 2), 1.0)]))

    def test_output_file_matches_stdout(self, capsys, tmp_path, ex31_path):
        right = write_matrix(tmp_path, "r.json", [[1, 0], [0, 1]])
        out = tmp_path / "prod.json"
        code, _ = run_cli(capsys, "product", ex31_path, right, "-o", str(out))
        assert code == 0
        run_again, doc = run_cli(capsys, "product", ex31_path, right)
        assert run_again == 0
        assert out.read_text() == tensorio.dumps(doc) + "\n"

    def test_dimension_mismatch(self, capsys, tmp_path, ex31_path):
        right = write_matrix(tmp_path, "r.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        code, doc = run_cli(capsys, "product", ex31_path, right)
        assert code == 1 and doc["error"] == "DimensionMismatch"

    def test_past_the_double_range(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "a.json", [[1e200]])
        code, doc = run_cli(capsys, "product", path, path)
        assert code == 1 and doc == {"error": "ProductOutOfRange", "detail":
                                     "entry (1, 1) of the product is beyond the double range"}


class TestDet:
    def test_diagonal_blocks(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.diagonal_tensor(3, [2.0, 3.0]))
        code, doc = run_cli(capsys, "det", "--tensor", path,
                            "--partition", "1,1", "--kind", "utb1")
        assert code == 0 and doc == {"det": 36.0}

    def test_third_kind_refused(self, capsys, ex31_path):
        code, doc = run_cli(capsys, "det", "--tensor", ex31_path,
                            "--partition", "1,1", "--kind", "utb3")
        assert code == 1 and doc["error"] == "ThirdTypeUnsupported"

    @pytest.mark.parametrize("value", [2.0, 0.5])
    def test_out_of_range_is_an_error_document(self, capsys, tmp_path, value):
        path = write_tensor(tmp_path, "a.json", tb.diagonal_tensor(3, [value] * 10))
        code, doc = run_cli(capsys, "det", "--tensor", path,
                            "--partition", "5,5", "--kind", "diag")
        assert code == 1 and doc["error"] == "DeterminantOutOfRange"


@pytest.mark.parametrize("verb, error", [("det", "BlockDetUnavailable"),
                                         ("spectrum", "BlockSpectrumUnavailable")])
def test_dimension_million_two_entries(tmp_path, verb, error):
    # a_233 = a_322 = 1: the 999999-block refines to (2, 1, ..., 1), whose 2-block has no
    # supported refinement; one error document and no traceback, in a fresh interpreter
    path = tmp_path / "a.json"
    path.write_text('{"order": 3, "dim": 1000000, "entries": '
                    '[{"i": [2, 3, 3], "v": 1}, {"i": [3, 2, 2], "v": 1}]}')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "triblock.cli", verb, "--tensor", str(path),
                           "--partition", "1,999999", "--kind", "utb1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (1, ""), proc.stderr[-2000:]
    assert json.loads(proc.stdout)["error"] == error


def test_nesting_deeper_than_the_recursion_limit(tmp_path):
    # the zigzag's blocks nest 1199 deep; one document and no traceback, in a fresh interpreter
    path = write_tensor(tmp_path, "a.json", zigzag(1200))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "triblock.cli", "det", "--tensor", path,
                           "--partition", "1,1199", "--kind", "utb1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"det": 1.0}


@pytest.mark.parametrize("verb", ["classify", "spectrum"])
def test_reader_that_closes_stdout_early(tmp_path, fixtures_dir, verb):
    # stdout is a pipe whose read end is closed: status 1 and no traceback, for a one-line
    # answer and for the dim-1200 zigzag's spectrum, far longer than a pipe holds
    if verb == "classify":
        argv = ["--tensor", str(fixtures_dir / "ex31.json"), "--partition", "1,1", "--kind", "utb1"]
    else:
        argv = ["--tensor", write_tensor(tmp_path, "a.json", zigzag(1200)),
                "--partition", "1,1199", "--kind", "utb1"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "triblock.cli", verb, *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, ""), proc.stderr[-2000:]


class TestSpectrum:
    def test_diagonal_blocks(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.diagonal_tensor(3, [2.0, 3.0]))
        code, doc = run_cli(capsys, "spectrum", "--tensor", path,
                            "--partition", "1,1", "--kind", "utb1")
        assert code == 0
        assert doc == {"items": [{"eigs": [2.0], "exp": 2}, {"eigs": [3.0], "exp": 2}],
                       "degree": 4}

    def test_exponent_past_the_digit_limit(self, capsys, tmp_path):
        # the 14999-block's exponent 2**14998 has 4515 digits, past the int-to-text limit
        path = write_tensor(tmp_path, "a.json", tb.diagonal_tensor(3, [1.0] * 15000))
        code, doc = run_cli(capsys, "spectrum", "--tensor", path,
                            "--partition", "1,14999", "--kind", "utb1")
        assert code == 1 and doc["error"] == "FormatError"
        assert f"limit of {sys.get_int_max_str_digits()} digits" in doc["detail"]


class TestRho:
    def test_all_ones(self, capsys, tmp_path):
        ones = tb.new_tensor(3, 2, [(idx, 1.0) for idx in
                                    itertools.product((1, 2), repeat=3)])
        path = write_tensor(tmp_path, "a.json", ones)
        code, doc = run_cli(capsys, "rho", "--tensor", path)
        assert code == 0
        assert doc["rho"] == pytest.approx(4.0, abs=1e-8)
        assert doc["residual"] < 1e-8
        assert len(doc["eigvec"]) == 2 and all(v > 0 for v in doc["eigvec"])

    def test_reducible_input_has_no_eigvec(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.diagonal_tensor(3, [2.0, 5.0]))
        code, doc = run_cli(capsys, "rho", "--tensor", path)
        assert code == 0
        assert doc["rho"] == pytest.approx(5.0, abs=1e-10)
        assert doc["eigvec"] is None

    def test_negative_entry_rejected(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json",
                            tb.new_tensor(3, 2, [((1, 1, 1), -1.0)]))
        code, doc = run_cli(capsys, "rho", "--tensor", path)
        assert code == 1 and doc["error"] == "NegativeEntry"

    def test_deterministic_bytes(self, capsys, tmp_path):
        ones = tb.new_tensor(3, 2, [(idx, 1.0) for idx in
                                    itertools.product((1, 2), repeat=3)])
        path = write_tensor(tmp_path, "a.json", ones)
        outs = []
        for _ in range(2):
            assert cli.run(["rho", "--tensor", path]) == 0
            outs.append(capsys.readouterr().out)
            assert "rho" in json.loads(outs[-1])
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("entries, code", [
        ({(1, 1): 1e308, (1, 2): 1e308, (2, 1): 1.0}, 0),
        ({(i, j): 1e308 for i in (1, 2) for j in (1, 2)}, 1),
    ])
    def test_row_sums_past_the_double_range(self, capsys, tmp_path, entries, code):
        path = write_tensor(tmp_path, "a.json", tb.new_tensor(2, 2, entries.items()))
        got, doc = run_cli(capsys, "rho", "--tensor", path)
        assert got == code
        if code:
            assert doc["error"] == "RadiusOutOfRange"
        else:
            assert doc["rho"] == pytest.approx(1e308, rel=1e-9)

    def test_underflowing_iterate_is_an_error_document(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.Tensor(3, 3, UNDERFLOWING))
        assert cli.run(["rho", "--tensor", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("\n") == 1
        doc = json.loads(captured.out)
        assert doc["error"] == "NoConvergence" and "nan" not in doc["detail"]

    def test_seed_flag_is_gone(self, capsys, tmp_path, fixtures_dir):
        # the power iteration starts from the all-ones vector; nothing consumes a seed
        path = write_tensor(tmp_path, "a.json", tb.unit_tensor(3, 2))
        assert cli.run(["rho", "--tensor", path, "--seed", "3"]) == 2
        edges = str(fixtures_dir / "hyper_two_triangles.json")
        assert cli.run(["hypergraph-rho", "--edges", edges, "--seed", "3"]) == 2
        assert capsys.readouterr().out == ""


    @pytest.mark.parametrize("verb,flag,value", [
        ("rho", "--tol", "0"), ("rho", "--tol", "-0.001"), ("rho", "--tol", "nan"),
        ("rho", "--max-iter", "0"), ("hypergraph-rho", "--tol", "0"),
        ("hypergraph-rho", "--max-iter", "-5"), ("mtensor", "--tol", "-1"),
        ("mtensor", "--tol", "nan"), ("verify", "--tol", "-1"), ("verify", "--tol", "nan"),
    ])
    def test_non_positive_limits_are_usage_errors(self, capsys, fixtures_dir, verb, flag, value):
        ex31 = str(fixtures_dir / "ex31.json")
        source = {"rho": ["--tensor", ex31], "mtensor": ["--tensor", ex31],
                  "verify": ["--left", ex31, ex31],
                  "hypergraph-rho": ["--edges", str(fixtures_dir / "hyper_chain.json")]}[verb]
        assert cli.run([verb, *source, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be positive" in captured.err


class TestOracle:
    def test_unit_tensor_floor(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.unit_tensor(3, 2))
        code, doc = run_cli(capsys, "oracle", "--tensor", path)
        assert code == 0
        assert doc["min_norm"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert doc["restarts_used"] == 64
        assert len(doc["witness"]["re"]) == 2 and len(doc["witness"]["im"]) == 2

    def test_singular_direction_found(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json",
                            tb.new_tensor(3, 2, [((1, 1, 1), 1.0)]))
        code, doc = run_cli(capsys, "oracle", "--tensor", path,
                            "--restarts", "8", "--iters", "200")
        assert code == 0 and doc["min_norm"] < 1e-6

    @pytest.mark.parametrize("flag", ["--restarts", "--iters"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_counts_are_usage_errors(self, capsys, ex31_path, flag, value):
        assert cli.run(["oracle", "--tensor", ex31_path, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be positive" in captured.err

    @pytest.mark.parametrize("value", ["-1", "-7"])
    def test_negative_seed_is_a_usage_error(self, capsys, ex31_path, value):
        assert cli.run(["oracle", "--tensor", ex31_path, "--seed", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--seed: must be nonnegative, got '{value}'" in captured.err

    def test_seed_zero_runs(self, capsys, ex31_path):
        code, doc = run_cli(capsys, "oracle", "--tensor", ex31_path, "--seed", "0",
                            "--restarts", "2", "--iters", "5")
        assert code == 0 and doc["restarts_used"] == 2

    @pytest.mark.parametrize("values", [[1e100, 1e100], [1e200, 1.0]])
    def test_values_past_the_old_range_are_one_answer_document(self, capsys, tmp_path, values):
        # the absolute row sums r_i have sum r_i^2 >= 2^500; the least norms are 1e100 / sqrt(2)
        # and 1, the second 2^-664 below the tensor's scale, which the probe reads as zero
        path = write_tensor(tmp_path, "a.json", tb.diagonal_tensor(3, values))
        assert cli.run(["oracle", "--tensor", path, "--restarts", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("\n") == 1
        min_norm = json.loads(captured.out)["min_norm"]
        if values[1] == 1.0:
            assert 1.0 <= min_norm < 1e-100 * values[0]
        else:
            assert min_norm == pytest.approx(1e100 / math.sqrt(2), rel=1e-15)

    def test_a_least_norm_past_the_double_range_is_one_error_document(self, capsys, tmp_path):
        c = 1.7e308  # ||A x|| = sqrt(2) * c for every unit x
        t = tb.Tensor(2, 2, {(1, 1): c, (1, 2): c, (2, 1): c, (2, 2): -c})
        path = write_tensor(tmp_path, "a.json", t)
        assert cli.run(["oracle", "--tensor", path, "--restarts", "2", "--iters", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"] == "OracleOutOfRange"

    def test_deterministic_bytes(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.unit_tensor(3, 2))
        cli.run(["oracle", "--tensor", path, "--restarts", "4"])
        first = capsys.readouterr().out
        cli.run(["oracle", "--tensor", path, "--restarts", "4"])
        assert capsys.readouterr().out == first


class TestInverses:
    def test_left_inverse_of_row_diagonal(self, capsys, tmp_path):
        a = tb.row_diagonal_from_matrix([[2.0, 0.0], [0.0, 4.0]], 3)
        path = write_tensor(tmp_path, "a.json", a)
        out = tmp_path / "inv.json"
        code, doc = run_cli(capsys, "left-inverse", "--tensor", path,
                            "-k", "2", "-o", str(out))
        assert code == 0
        assert doc == tensorio.tensor_to_obj(
            tb.new_tensor(2, 2, [((1, 1), 0.5), ((2, 2), 0.25)]))
        assert out.read_text() == tensorio.dumps(doc) + "\n"

    def test_left_inverse_unavailable(self, capsys, fixtures_dir):
        code, doc = run_cli(capsys, "left-inverse", "--tensor",
                            str(fixtures_dir / "ex24.json"), "-k", "2")
        assert code == 1 and doc["error"] == "NoLeftInverse"

    @staticmethod
    def past_the_double_range(capsys, tmp_path, verb):
        # 1 / 1e-310 is past the largest double: the detail says so, not "singular"
        path = tmp_path / "a.json"
        path.write_text('{"order":2,"dim":1,"entries":[{"i":[1,1],"v":1e-310}]}')
        code = cli.run([verb, "--tensor", str(path), "-k", "2"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        return json.loads(out)

    def test_inverse_past_the_double_range(self, capsys, tmp_path):
        assert self.past_the_double_range(capsys, tmp_path, "left-inverse") == {
            "error": "NoLeftInverse",
            "detail": "row matrix: an inverse entry is beyond the double range"}

    def test_right_inverse_past_the_double_range(self, capsys, tmp_path):
        assert self.past_the_double_range(capsys, tmp_path, "right-inverse") == {
            "error": "NotRightInvertible",
            "detail": "recovered factor matrix: an inverse entry is beyond the double range"}

    def test_right_inverse_root_power_past_the_double_range(self, capsys, tmp_path):
        # the rounded 4th root of the largest double, raised back, overflows a float:
        # the root is not snapped, and its product with the unit tensor is out of range
        path = tmp_path / "a.json"
        path.write_text('{"order": 5, "dim": 1, "entries": '
                        '[{"i": [1, 1, 1, 1, 1], "v": 1.7976931348623157e308}]}')
        code = cli.run(["right-inverse", "--tensor", str(path), "-k", "2"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "") and json.loads(out) == {
            "error": "ProductOutOfRange",
            "detail": "entry (1, 1, 1, 1, 1) of the product is beyond the double range"}

    def test_right_inverse_round_trip(self, capsys, tmp_path):
        q = [[2.0, 1.0], [0.0, 3.0]]
        a = tb.general_product(tb.unit_tensor(3, 2), tb.tensor_from_matrix(q))
        path = write_tensor(tmp_path, "a.json", a)
        code, doc = run_cli(capsys, "right-inverse", "--tensor", path, "-k", "2")
        assert code == 0
        got = tensorio.tensor_from_obj(doc)
        assert tb.verify_inverse(got, a, "right", tol=1e-10)

    def test_right_inverse_unavailable(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "a.json", [[1, 1], [1, 1]])
        code, doc = run_cli(capsys, "right-inverse", "--tensor", path, "-k", "2")
        assert code == 1 and doc["error"] == "NotRightInvertible"

    def test_verify_both_sides(self, capsys, tmp_path):
        unit = write_tensor(tmp_path, "u.json", tb.unit_tensor(3, 2))
        eye = write_matrix(tmp_path, "eye.json", [[1, 0], [0, 1]])
        code, doc = run_cli(capsys, "verify", "--left", eye, unit)
        assert code == 0 and doc == {"result": True}
        code, doc = run_cli(capsys, "verify", "--right", eye, unit)
        assert code == 0 and doc == {"result": True}

    def test_verify_rejects_wrong_scale(self, capsys, tmp_path):
        unit = write_tensor(tmp_path, "u.json", tb.unit_tensor(3, 2))
        off = write_matrix(tmp_path, "off.json", [[2, 0], [0, 1]])
        code, doc = run_cli(capsys, "verify", "--left", off, unit)
        assert code == 0 and doc == {"result": False}

    def test_verify_sides_are_exclusive(self, capsys, tmp_path):
        unit = write_tensor(tmp_path, "u.json", tb.unit_tensor(3, 2))
        code, doc = run_cli(capsys, "verify", "--left", "--right", unit, unit)
        assert code == 2 and doc is None


class TestMTensor:
    def test_shifted_ones(self, capsys, tmp_path):
        entries = [(idx, 4.0 if len(set(idx)) == 1 else -1.0)
                   for idx in itertools.product((1, 2), repeat=3)]
        path = write_tensor(tmp_path, "a.json", tb.new_tensor(3, 2, entries))
        code, doc = run_cli(capsys, "mtensor", "--tensor", path)
        assert code == 0
        assert doc["z"] and doc["m"] and doc["nonsingular_m"]
        assert doc["s"] == 4.0
        assert doc["rho"] == pytest.approx(3.0, abs=1e-9)

    def test_positive_entry_is_not_z(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "a.json", [[1, 1], [0, 1]])
        code, doc = run_cli(capsys, "mtensor", "--tensor", path)
        assert code == 0
        assert doc == {"z": False, "m": False, "nonsingular_m": False,
                       "s": None, "rho": None}


class TestNormalFormCommand:
    def test_second_type(self, capsys, ex61_path, tmp_path):
        out = tmp_path / "nf.json"
        code, doc = run_cli(capsys, "normal-form", "--tensor", ex61_path,
                            "--type", "2nd", "-o", str(out))
        assert code == 0
        assert doc["sigma"] == [3, 2, 1, 4]
        assert doc["partition"] == [1, 1, 1, 1]
        assert doc["kind"] == "utb2"
        assert all(block["entries"] == [] for block in doc["blocks"])
        assert out.read_text() == tensorio.dumps(doc) + "\n"

    def test_third_type(self, capsys, ex31_path):
        code, doc = run_cli(capsys, "normal-form", "--tensor", ex31_path,
                            "--type", "3rd")
        assert code == 0
        assert doc["sigma"] == [1, 2] and doc["partition"] == [1, 1]
        assert doc["kind"] == "utb3"

    def test_third_type_can_be_unavailable(self, capsys, tmp_path):
        a = tb.new_tensor(3, 3, [((1, 2, 2), 1.0), ((2, 3, 3), 1.0), ((3, 1, 2), 1.0)])
        path = write_tensor(tmp_path, "a.json", a)
        code, doc = run_cli(capsys, "normal-form", "--tensor", path, "--type", "3rd")
        assert code == 1 and doc["error"] == "NormalFormUnavailable"

    def test_third_type_past_dim_twelve(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.new_tensor(3, 13, [((2, 1, 3), 1.0)]))
        code, doc = run_cli(capsys, "normal-form", "--tensor", path, "--type", "3rd")
        assert code == 0
        assert doc["partition"] == [1] * 13 and doc["kind"] == "utb3"

    def test_unknown_type_is_a_usage_error(self, capsys, ex31_path):
        code, doc = run_cli(capsys, "normal-form", "--tensor", ex31_path,
                            "--type", "1st")
        assert code == 2 and doc is None


class TestFirstTypeNormalCommand:
    def test_no_witness(self, capsys, ex61_path):
        code, doc = run_cli(capsys, "first-type-normal", "--tensor", ex61_path)
        assert code == 0 and doc == "none"

    def test_witness(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "a.json", tb.unit_tensor(3, 2))
        code, doc = run_cli(capsys, "first-type-normal", "--tensor", path)
        assert code == 0 and doc == {"sigma": [1, 2], "partition": [1, 1]}


class TestHypergraphRhoCommand:
    def test_disjoint_components(self, capsys, fixtures_dir):
        code, doc = run_cli(capsys, "hypergraph-rho", "--edges",
                            str(fixtures_dir / "hyper_two_triangles.json"))
        assert code == 0
        assert len(doc["component_rhos"]) == 2
        assert doc["rho"] == pytest.approx(max(doc["component_rhos"]), abs=1e-8)
        assert doc["rho"] == pytest.approx(1.0, abs=1e-8)

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"k": 3, "edges": []}')
        code, doc = run_cli(capsys, "hypergraph-rho", "--edges", str(path))
        assert code == 1 and doc["error"] == "FormatError"


class TestProcessLevel:
    def test_missing_file(self, capsys):
        code, doc = run_cli(capsys, "classify", "--tensor", "/no/such/file.json",
                            "--partition", "1,1", "--kind", "utb3")
        assert code == 1 and doc["error"] == "FileNotFound"

    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="10**400")])
    def test_value_a_double_cannot_hold(self, capsys, tmp_path, value):
        path = tmp_path / "a.json"
        path.write_text('{"order": 2, "dim": 1, "entries": [{"i": [1, 1], "v": %s}]}' % value)
        code, doc = run_cli(capsys, "classify", "--tensor", str(path),
                            "--partition", "1", "--kind", "diag")
        assert code == 1 and doc["error"] == "FormatError"

    @pytest.mark.parametrize("argv, want", [
        (["classify", "--tensor", "{dir}", "--partition", "1,1", "--kind", "utb3"], "IsADirectory"),
        (["hypergraph-rho", "--edges", "{dir}"], "IsADirectory"),
        (["classify", "--tensor", "{bad}", "--partition", "1,1", "--kind", "utb3"], "FormatError"),
        (["product", "{ex31}", "{ex31}", "-o", "{dir}"], "IsADirectory"),
    ], ids=["tensor-is-a-directory", "edges-is-a-directory", "not-utf8", "output-is-a-directory"])
    def test_unreadable_paths_are_one_error_document(self, capsys, tmp_path, ex31_path, argv,
                                                     want):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00")
        paths = {"dir": str(tmp_path), "bad": str(bad), "ex31": ex31_path}
        code = cli.run([arg.format(**paths) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert out.count("\n") == 1 and json.loads(out)["error"] == want

    def test_unknown_command(self, capsys):
        code, doc = run_cli(capsys, "frobnicate")
        assert code == 2 and doc is None

    def test_console_script(self, fixtures_dir):
        # Runs the callable that [project.scripts] declares, in a fresh
        # interpreter the way an installed wrapper would, so no install is
        # needed: only the checkout's src on PYTHONPATH.
        with open(ROOT / "pyproject.toml", "rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["triblock"]
        launcher = ("import sys; from importlib.metadata import EntryPoint; "
                    f"sys.exit(EntryPoint('triblock', {spec!r}, 'console_scripts').load()())")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        _assert_classifies_ex31([sys.executable, "-c", launcher], fixtures_dir, env)

    @pytest.mark.skipif(shutil.which("triblock") is None,
                        reason="the triblock console script is not installed on PATH")
    def test_installed_console_script(self, fixtures_dir):
        _assert_classifies_ex31([shutil.which("triblock")], fixtures_dir)


def test_cli_reaches_no_private_name():
    """cli.py takes only public names from the other triblock modules."""
    tree = ast.parse((ROOT / "src" / "triblock" / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname or alias.name for node in imports if node.module is None
               for alias in node.names}
    private = [alias.name for node in imports for alias in node.names
               if alias.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert "tensorio" in modules and private == []


# Run in a fresh interpreter whose address space is capped at 2 GiB: a tensor whose storage
# grew with its dim (8 bytes a row at dim 10^9) could not be built there.
HUGE_DIM_CHILD = """
import contextlib, io, json, pickle, resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
import triblock as tb
from triblock import cli, tensorio

def run(*argv, path=sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([*argv, "--tensor", path])
    return code, json.loads(out.getvalue())

assert run("classify", "--partition", "1,999999999", "--kind", "utb1") == (0, {"result": True})
# the order-3 document's spans are read entry by entry: no table of dim^3 cells is formed
for kind in ("utb1", "utb2", "utb3", "ltb1", "ltb2", "ltb3", "diag"):
    assert run("classify", "--partition", "1,999999999", "--kind", kind, path=sys.argv[2]) == (
        0, {"result": True}), kind
# the determinant reads the stored diagonal alone: a missing diagonal entry makes it 0.0
for path in sys.argv[1:]:
    assert run("det", "--partition", "1,999999999", "--kind", "utb1", path=path) == (
        0, {"det": 0.0})
code, doc = run("blocks", "--partition", "1,999999999")
assert code == 0 and doc == {"blocks": [
    {"order": 2, "dim": 1, "entries": [{"i": [1, 1], "v": 1.0}]},
    {"order": 2, "dim": 999999999, "entries": []}]}, doc
with open(sys.argv[1]) as fh:
    t = tensorio.loads_tensor(fh.read())
assert (t.get((1, 1)), t.get((1.0, True)), t.get((2, 1)), t.get((10 ** 9, 10 ** 9))) == (
    1.0, 1.0, 0.0, 0.0)
assert t == tb.Tensor(2, 10 ** 9, {(1, 1): 1.0}) and t != tb.Tensor(2, 10 ** 9, {(2, 2): 1.0})
copy = pickle.loads(pickle.dumps(t))
assert copy == t and copy.dim == 10 ** 9
assert tb.principal_subtensor(t, {1}) == tb.Tensor(2, 1, {(1, 1): 1.0})
# a member at the dim relabels by binary search: no table runs up to it
assert tb.principal_subtensor(t, {1, 10 ** 9}) == tb.Tensor(2, 2, {(1, 1): 1.0})
assert tb.general_product(t, t) == t
"""


def test_dim_1e9_document_in_a_fresh_interpreter(tmp_path):
    pytest.importorskip("resource")
    path, cubic = tmp_path / "huge.json", tmp_path / "huge3.json"
    path.write_text('{"order": 2, "dim": 1000000000, "entries": [{"i": [1, 1], "v": 1.0}]}')
    cubic.write_text('{"order": 3, "dim": 1000000000, "entries": '
                     '[{"i": [1, 1, 1], "v": 2.0}, {"i": [2, 2, 2], "v": 3.0}]}')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", HUGE_DIM_CHILD, str(path), str(cubic)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def _assert_classifies_ex31(command, fixtures_dir, env=None):
    proc = subprocess.run(
        [*command, "classify", "--tensor", str(fixtures_dir / "ex31.json"),
         "--partition", "1,1", "--kind", "utb3"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"result": True}
