"""The demos run to completion from a clean working directory.

Each runs in its own temporary directory, so the ``demo_output/`` that
``demos/03_monte_carlo_studies.py`` writes lands there.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo",
    [
        "01_simulate_and_identify.py",
        "02_weighted_bank_vs_plain.py",
        "03_monte_carlo_studies.py",
        "04_models_blocks_and_io.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], cwd=tmp_path, capture_output=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr.decode()
