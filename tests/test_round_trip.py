"""Bit-exact round trips of the CSV record and the model JSON.

Values are compared through their int64 bit patterns, so -0.0, subnormals
and the largest finite doubles must come back unchanged.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parsimid import StateSpaceModel, load_model, save_model
from parsimid.cli import _read_record, _write_record

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
BIG = np.finfo(float).max
EDGES = (-0.0, 5e-324, -np.finfo(float).tiny, BIG, -BIG)
doubles = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@SETTINGS
@given(pairs=st.lists(st.tuples(doubles, doubles), min_size=1, max_size=30))
@example(pairs=[(v, -v) for v in EDGES])
def test_csv_record_round_trip_bit_exact(pairs):
    u, y = (np.array(col) for col in zip(*pairs))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "rec.csv")
        _write_record(path, u, y)
        rec = _read_record(path)
    np.testing.assert_array_equal(bits(rec.u), bits(u))
    np.testing.assert_array_equal(bits(rec.y), bits(y))


@st.composite
def models(draw):
    n = draw(st.integers(1, 3))

    def mat(rows, cols):
        vals = draw(st.lists(doubles, min_size=rows * cols, max_size=rows * cols))
        return np.array(vals).reshape(rows, cols)

    return StateSpaceModel(
        A=mat(n, n), B=mat(n, 1), C=mat(1, n), D=mat(1, 1), K=mat(n, 1),
        sigma_e2=abs(draw(doubles)),
    )


EDGE_MODEL = StateSpaceModel(
    A=[[-0.0]], B=[[5e-324]], C=[[BIG]], D=[[-BIG]], K=[[-np.finfo(float).tiny]], sigma_e2=BIG
)


@SETTINGS
@given(m=models())
@example(m=EDGE_MODEL)
def test_model_json_round_trip_bit_exact(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(m, path)
        back = load_model(path)
    for name in ("A", "B", "C", "D", "K", "sigma_e2"):
        np.testing.assert_array_equal(bits(getattr(back, name)), bits(getattr(m, name)), err_msg=name)
