"""tools/gates.py, the two static gates that CI runs, passes on this tree."""

import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "gates.py"


def test_static_gates_pass():
    # No unused import, and no library definition that only tests load.
    done = subprocess.run([sys.executable, str(_PATH)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["no unused imports", "every library definition has a caller outside the tests"]
