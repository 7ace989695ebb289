"""The runtime dependency set stays at numpy alone."""
import os
import re
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli there
    import tomli as tomllib

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_lists_only_numpy():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in deps] == ["numpy"]


def fresh_output(probe: str) -> str:
    """What ``probe`` prints in a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout.strip()


def test_import_loads_no_graph_library():
    assert fresh_output("import sys, triblock; print('networkx' in sys.modules)") == "False"


def test_structure_and_radius_load_no_masked_arrays():
    # NumPy 2.4's np.unique and np.setdiff1d import numpy.ma, about 1 MB of resident memory;
    # the peel (which drops a_133 here), the weak set, the first-type witness and the radius
    # need neither
    probe = """
import sys, triblock as tb
t = tb.new_tensor(3, 4, [((1, 2, 2), 1.0), ((2, 1, 1), 2.0), ((3, 4, 4), 1.0),
                         ((4, 3, 3), 1.0), ((1, 3, 3), 1.0)])
assert tb.normal_form_2nd(t).partition.parts == (2, 2)
assert tb.find_weakly_reducing_set(t) == {3, 4}
assert tb.exists_first_type_normal_form(t) is not None
assert tb.spectral_radius(t).rho > 1
print('numpy.ma' in sys.modules)
"""
    assert fresh_output(probe) == "False"


def test_blocked_structure_loads_no_masked_arrays():
    # the span view is deduplicated through a table of flags, not np.unique(axis=0): every
    # kind's test, the partition search, the block walk and the classify verb, on tensors
    # on both sides of the table rule
    probe = f"""
import contextlib, io, sys, numpy as np, triblock as tb
from triblock import cli
t = tb.new_tensor(3, 4, [((1, 1, 1), 2.0), ((1, 2, 3), 1.0), ((2, 2, 2), -1.0),
                         ((3, 3, 4), 1.0), ((3, 4, 3), 1.0), ((3, 3, 3), 1.0), ((4, 4, 4), 3.0)])
wide = tb.new_tensor(3, 40, [((1, 1, 1), 1.0), ((2, 40, 3), 1.0), ((39, 39, 40), 1.0)])
p, utb1 = tb.Partition((2, 2)), tb.BlockKind.UTB1
assert [tb.is_blocked(t, p, k) for k in tb.BlockKind] == [True, True, True, False, False,
                                                          True, False]
assert [tb.is_blocked(wide, tb.Partition((1, 39)), k) for k in tb.BlockKind] == [True] * 7
dense = tb.Tensor.from_dense(np.ones((4, 4, 4)))
assert [tb.is_blocked(dense, p, k) for k in tb.BlockKind] == [False] * 7
assert len(tb.blocked_partitions(dense, tb.BlockKind.DIAG)) == 1
assert len(tb.blocked_partitions(t, utb1)) == 7
assert tb.det_blocked(t, p, utb1) == 6.0 ** 8
assert tb.spectrum_blocked(t, p, utb1).total_degree == 32
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.run(["classify", "--tensor", {str(ROOT / "fixtures" / "ex31.json")!r},
                    "--partition", "1,1", "--kind", "utb3"])
assert code == 0 and out.getvalue().strip() == '{{"result": true}}', out.getvalue()
print('numpy.ma' in sys.modules)
"""
    assert fresh_output(probe) == "False"


def test_wire_layer_loads_no_masked_arrays():
    # the writer tests its view's order and finds its runs of leading components, and the
    # reader skips or makes its sort of the index codes, without np.unique; both ways of each,
    # on a dense order-3 document read as text and as bytes
    probe = """
import sys, numpy as np, triblock as tb
from triblock import tensorio
dense = tb.Tensor.from_dense(np.arange(1.0, 1.0 + 6 ** 3).reshape(6, 6, 6))
text = tensorio.dumps_tensor(dense)
shuffled = tb.Tensor(3, 6, dict(reversed(list(dense.entries.items()))))
assert tensorio.dumps_tensor(shuffled) == text
backwards = text.replace('"entries": [', '"entries": [{"i": [6, 6, 6], "v": 216.0}, ', 1)
backwards = backwards.replace(', {"i": [6, 6, 6], "v": 216.0}]}', ']}')
for doc in (text, text.encode(), backwards, backwards.encode()):
    assert tensorio.dumps_tensor(tensorio.loads_tensor(doc)) == text
print('numpy.ma' in sys.modules)
"""
    assert fresh_output(probe) == "False"


def test_no_row_major_copy_of_a_view_index_array():
    # a view's index rows are stored column-major (``core.Coo``), so kernels read the columns
    # of ``idx.T`` in place; a C-ordered copy of an index array would undo that
    copies = re.compile(r"ascontiguousarray\(|order\s*=\s*[\"']C[\"']")
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted((ROOT / "src" / "triblock").glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if copies.search(line) and re.search(r"\bidx\b", line)]
    assert found == []
