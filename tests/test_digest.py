"""tools/digest.py: a repeatable corpus, and a compare that reports a move."""

import importlib.util
import io
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
_spec = importlib.util.spec_from_file_location("digest", _PATH)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_quick_corpus_repeats_and_compare_reports_a_doctored_move(tmp_path):
    first, second = digest.corpus(quick=True), digest.corpus(quick=True)
    assert first.keys() == second.keys()
    assert all(first[k].dtype == second[k].dtype and first[k].tobytes() == second[k].tobytes() for k in first)
    kinds = {key.split("/")[0] for key in first}
    assert kinds == {"bank", "identify", "simulate", "mc", "cli"}

    # The largest entry of one item moves by 1e-9, relative: above the 1e-10 guide.
    key = "identify/example1/seed0/p8/parsim_opt"
    doctored = dict(first)
    doctored[key] = first[key].copy()
    doctored[key][np.argmax(np.abs(first[key]))] *= 1 + 1e-9
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, **first)
    np.savez(b, **doctored)

    out = io.StringIO()
    assert digest.compare(a, a, out) is True
    assert out.getvalue().splitlines()[-3:] == [
        f"summary: {len(first)} items: {len(first)} equal bytes, 0 moved, "
        "0 differ in text, shape or non-finite entries, 0 in one file only",
        "largest move: none",
        "moved by more than 1e-10: none",
    ]

    out = io.StringIO()
    assert digest.compare(a, b, out) is False
    assert [line for line in out.getvalue().splitlines() if not line.endswith(": equal bytes")] == [
        f"{key}: moved 1e-09",
        f"summary: {len(first)} items: {len(first) - 1} equal bytes, 1 moved, "
        "0 differ in text, shape or non-finite entries, 0 in one file only",
        f"largest move: 1e-09 ({key})",
        f"moved by more than 1e-10: {key}",
    ]
