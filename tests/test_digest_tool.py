"""The before/after digest tool still runs against this tree's ``src/``.

``tests/_digest.py`` imports private names of the package (``_block_ends``,
``_forbidden``), so renaming one would only surface
when the tool is next run to compare two trees.
"""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AREAS = ["subtensors_permutations_blocks", "is_blocked", "block_ends", "reducing_sets",
         "normal_forms", "block_walk", "det_spectrum", "majorization", "radius",
         "wire", "inverse", "product", "peel", "refinement_wide", "radius_blocks", "wire_text",
         "components", "cli_fixtures", "cli_radius", "oracle", "product_dense"]


def test_digest_prints_one_hash_per_area():
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "_digest.py"), str(ROOT / "src")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(" ")[0] for line in lines] == AREAS
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
