"""The library does not import the paper's experiment drivers.

``repro.experiments`` pulls in ``scipy.signal`` (through ``fig5``),
which costs about a second and 70 MB on a fresh interpreter; no sweep,
served job or optimize run uses it, so the runner, the server and the
CLI module leave it unloaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_runner_server_and_cli_leave_the_experiments_unloaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "import repro.runner, repro.server.app, repro.cli\n"
        "print(sorted(m for m in ('scipy.signal', 'repro.experiments')"
        " if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]", done.stdout
