"""Model forms, data blocks, and serialization round trips.

A tour of the lower-level building blocks: innovations and predictor poles,
Markov parameters, Hankel data blocks and their column weighting, and the
JSON model format shared with the command-line tools.

Run with:  python demos/04_models_blocks_and_io.py
"""

import tempfile
from pathlib import Path

import numpy as np

import parsimid as ps

# ----------------------------------------------------------------------
# A small model and its two parameterizations.
# ----------------------------------------------------------------------
model = ps.StateSpaceModel(A=[[0.7, -0.2], [1.0, 0.0]], B=[1.0, 0.5],
                           C=[1.0, -0.4], D=0.0, K=[0.3, 0.1], sigma_e2=0.5)
print("innovations-form poles:", np.round(np.linalg.eigvals(model.A), 4))
print("predictor-form poles  :", np.round(np.linalg.eigvals(model.A - model.K @ model.C), 4))
print("input Markov params   :", np.round(ps.markov_g(model, 5), 4))
print("noise Markov params   :", np.round(ps.markov_h(model, 5), 4))

# The two channels of the impulse response agree with a direct simulation.
imp = np.zeros(6)
imp[0] = 1.0
print("impulse via simulate  :", np.round(ps.simulate(model, imp), 4))
print("impulse via markov    :", np.round(ps.impulse_response(model, 6), 4))

# ----------------------------------------------------------------------
# Data blocks: the past/future Hankel blocks share their N columns.  They are
# kept as windows of the record; their design, built only to be factored,
# lays them out transposed, side by side, in one N x (2p + 2f) matrix.  The
# SVD's column weighting W2 is a (2p, 2p) square-root factor of the past Gram
# matrix with the future inputs projected out, read from one QR of the record.
# ----------------------------------------------------------------------
rng = np.random.default_rng(5)
u = rng.standard_normal(400)
rec = ps.SignalRecord(u=u, y=ps.simulate(model, u, 0.5 * rng.standard_normal(400)))
blocks = ps.assemble_blocks(rec, f=4, p=6)
print(f"\nblocks: f={blocks.f}, p={blocks.p}, shared columns N={blocks.N}")
print("design [Y_p' U_p' U_f' Y_f'] (columns p, p, f, f):", (blocks.N, 2 * (blocks.p + blocks.f)))

W2 = ps.weight_w2(blocks)
print("column weighting W2:", W2.shape)

# ----------------------------------------------------------------------
# JSON round trip: the model document is plain nested arrays and doubles
# survive exactly (shortest-representation decimal encoding).
# ----------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    ps.save_model(model, path)
    back = ps.load_model(path)
    print("\nserialized keys:", sorted(ps.model_to_dict(model)))
    print("bit-exact round trip:",
          all(np.array_equal(getattr(back, f), getattr(model, f))
              for f in ("A", "B", "C", "D", "K")))
