"""The scripts run end to end: the experiments also where a scheme cannot
score, and the fixture regenerator reproduces fixtures/ byte for byte."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
FIXTURES = SCRIPTS.parent / "fixtures"
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


def test_regen_fixtures_reproduces_the_fixtures(tmp_path):
    spec = importlib.util.spec_from_file_location("regen_fixtures", SCRIPTS / "regen_fixtures.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    regen.FIXTURES = tmp_path
    regen.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
