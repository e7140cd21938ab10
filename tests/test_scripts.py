"""The example scripts run to completion against the library as it is.

Each runs in a fresh interpreter, as a user would start it, so a change
to the library API that a script still uses fails here.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    ["orbit_census.py"],
    ["exponent_survey.py", "z^2", "--nmax", "2", "--depth", "4", "--breadth", "8"],
    ["explore_quartic_pair.py", "--min-steps", "1"],
], ids=lambda argv: argv[0])
def test_script_exits_cleanly(argv):
    path = os.pathsep.join([os.path.join(ROOT, "src")]
                           + [p for p in [os.environ.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout
