"""The experiment scripts run end to end, also where a scheme cannot score."""

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
