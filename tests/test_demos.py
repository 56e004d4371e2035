"""The demos run to completion from a clean working directory.

``demos/03_monte_carlo_studies.py`` is left out: it takes about 20 s and
writes ``demo_output/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import parsimid

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo",
    ["01_simulate_and_identify.py", "02_weighted_bank_vs_plain.py", "04_models_blocks_and_io.py"],
)
def test_demo_runs(demo, tmp_path):
    # Inherit the environment so the child imports the same parsimid as this
    # process; its directory goes first on PYTHONPATH because a relative
    # entry (PYTHONPATH=src) does not resolve from tmp_path.
    package_root = str(Path(parsimid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
