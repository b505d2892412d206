"""The scripts run end to end: the experiments also where a scheme cannot
score, and the line counter counts only code."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ROUND = "no route completes a round"


@pytest.mark.parametrize(
    "command, unscorable, scores",
    [
        ("delivery_experiment.py --horizon 4", ROUND, False),
        ("delivery_experiment.py --horizon 5", ROUND, True),
        ("restaurant_experiment.py --horizon 1 --episodes 50", "unscorable", False),
        ("restaurant_experiment.py --horizon 3 --episodes 50", "unscorable", True),
    ],
    ids=["delivery-unscorable", "delivery-scores", "restaurant-unscorable", "restaurant-scores"],
)
def test_experiment_script_exits_cleanly(command, unscorable, scores):
    """An unscorable run prints one line instead of a traceback."""
    script, *args = command.split()
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert (unscorable in done.stdout) != scores


SNIPPET = '''"""A module docstring
over two lines."""
import os  # a comment

# a lone comment


def f(x):
    """A docstring."""
    s = """a string
that is not a docstring"""
    return x + len(s)
'''


def test_code_lines_counts_only_code(tmp_path):
    """import, def, the two lines of the assigned string, and return."""
    (tmp_path / "m.py").write_text(SNIPPET)
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"5 {tmp_path / 'm.py'}\n5 total\n"
