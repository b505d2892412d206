"""The CLI's output on every fixture command matches tests/golden byte for
byte: exit code, stdout, stderr and the result files.

The command list and the line format live in scripts/regen_golden.py,
which rewrites the golden file when an output change is intended.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regen_golden.py"


def test_fixture_outputs_match_the_golden_file():
    spec = importlib.util.spec_from_file_location("regen_golden", SCRIPT)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    assert regen.golden_lines() == regen.GOLDEN.read_text().splitlines()
