"""SISO state-space models in innovations form.

The canonical representation is the innovations form

    x[k+1] = A x[k] + B u[k] + K e[k]
    y[k]   = C x[k] + D u[k] + e[k]

driven by a white innovations sequence ``e`` of variance ``sigma_e2``.
The equivalent predictor form substitutes ``A_bar = A - K C`` and
``B_bar = B - K D`` and is driven by the measured input and output:

    x[k+1] = A_bar x[k] + B_bar u[k] + K y[k]

``A_bar`` is stable whenever the one-step predictor converges, which makes
the predictor form the natural home for high-order regression models:
the ARX pre-estimates and SSARX work with its Markov parameters.

All objects in this module are immutable value types; operations are pure
functions of their inputs and safe to share between workers.  The module
owns the three value rules every entry point of the package applies:
``_freeze`` (finite, read-only arrays), ``_integer`` (sizes, counts and
seeds: an integer type, at least a lower bound) and ``_variance`` (a
finite value >= 0).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter, ss2tf

from .errors import ConfigError, DivergenceError

__all__ = [
    "StateSpaceModel",
    "SignalRecord",
    "simulate",
    "markov_g",
    "markov_h",
    "impulse_response",
    "spectral_radius",
    "is_stable",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

# is_stable requires the spectral radius to stay this far inside the unit circle.
STABILITY_MARGIN = 1e-9


def _as_square(x, name: str) -> np.ndarray:
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {a.shape}")
    return a


def _as_shape(x, shape: tuple[int, int], name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.size != shape[0] * shape[1]:
        raise ConfigError(f"{name} must have shape {shape}, got {np.shape(x)}")
    return a.reshape(shape)


def _freeze(a: np.ndarray, name: str) -> np.ndarray:
    out = np.array(a, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} contains non-finite entries")
    out.setflags(write=False)
    return out


def _integer(value, name: str, low: int) -> int:
    """``operator.index(value)`` if at least ``low``: numpy integers pass, and 2.5 or 10.0 is a ConfigError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def _variance(value, name: str) -> float:
    """``float(value)`` if finite and >= 0; NaN, inf or a negative value is a ConfigError."""
    if not (np.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


@dataclass(frozen=True)
class StateSpaceModel:
    """Innovations-form model (A, B, C, D, K) with innovations variance.

    Attributes:
        A: State transition matrix, shape (n_x, n_x).
        B: Input matrix, shape (n_x, 1).
        C: Output matrix, shape (1, n_x).
        D: Feedthrough, shape (1, 1).
        K: Stationary one-step-predictor gain, shape (n_x, 1).
        sigma_e2: Variance of the white innovations sequence, >= 0.

    Only single-input single-output models are supported; scalars and 1-D
    arrays are accepted for convenience and reshaped.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K: np.ndarray
    sigma_e2: float = 1.0

    def __post_init__(self):
        A = _as_square(self.A, "A")
        n = A.shape[0]
        B = _as_shape(self.B, (n, 1), "B")
        C = _as_shape(self.C, (1, n), "C")
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        if D.shape != (1, 1):
            raise ConfigError(f"D must be scalar (SISO), got shape {D.shape}")
        K = _as_shape(self.K, (n, 1), "K")
        object.__setattr__(self, "sigma_e2", _variance(self.sigma_e2, "sigma_e2"))
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D), ("K", K)):
            object.__setattr__(self, name, _freeze(M, name))

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class SignalRecord:
    """One input/output data record: equal-length, finite u and y."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        if u.shape != y.shape:
            raise ConfigError(f"u and y must have equal length, got {u.size} and {y.size}")
        object.__setattr__(self, "u", _freeze(u, "u"))
        object.__setattr__(self, "y", _freeze(y, "y"))

    def __len__(self) -> int:
        return self.u.size


def simulate(
    m: StateSpaceModel,
    u,
    e=None,
) -> np.ndarray:
    """Simulate the innovations-form recursion from the zero state.

    The model is SISO, so y = G(z) u + H(z) e with G = C (zI - A)^(-1) B + D
    and H = C (zI - A)^(-1) K + 1.  Both transfer functions come from
    ``scipy.signal.ss2tf`` and each signal is filtered in one ``lfilter``
    pass with zero initial conditions, which is the zero initial state.
    The polynomial form is accurate to rounding for the paper's systems
    and random draws up to order 40, but not for high-order clusters of
    poles near the unit circle (e.g. an order-8 Jordan block at 0.99).

    Args:
        m: Model to simulate.
        u: Input sequence, length N.
        e: Innovations sequence, length N. Defaults to zeros.

    Returns:
        Output sequence y of length N with
        y[k] = C x[k] + D u[k] + e[k] and x[k+1] = A x[k] + B u[k] + K e[k].

    Raises:
        ConfigError: On length or dimension mismatch.
        DivergenceError: If the output leaves the finite range; the message
            reports the first offending step index.
    """
    u = np.asarray(u, dtype=float).ravel()
    if e is None:
        e = np.zeros_like(u)
    else:
        e = np.asarray(e, dtype=float).ravel()
    if u.shape != e.shape:
        raise ConfigError(f"u and e must have equal length, got {u.size} and {e.size}")
    B_k = np.hstack([m.B, m.K])
    D_k = np.hstack([m.D, [[1.0]]])
    num_g, den = ss2tf(m.A, B_k, m.C, D_k, input=0)
    num_h, _ = ss2tf(m.A, B_k, m.C, D_k, input=1)
    # divergence is detected explicitly, so let the overflow itself pass
    with np.errstate(over="ignore", invalid="ignore"):
        y = lfilter(num_g[0], den, u) + lfilter(num_h[0], den, e)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise DivergenceError(f"simulation diverged at step {bad[0]}")
    return y


def markov_g(m: StateSpaceModel, count: int) -> np.ndarray:
    """Input-channel Markov parameters [C B, C A B, ..., C A^(count-1) B].

    Index i of the result (1-based) is C A^(i-1) B; the lag-zero term is
    the feedthrough D and is not included.
    """
    return _markov(m, m.B, count)


def markov_h(m: StateSpaceModel, count: int) -> np.ndarray:
    """Innovations-channel Markov parameters [C K, C A K, ...].

    Index i of the result (1-based) is C A^(i-1) K; the lag-zero term is
    the identity and is not included.
    """
    return _markov(m, m.K, count)


def observability(A: np.ndarray, C: np.ndarray, count: int) -> np.ndarray:
    """Extended observability stack [C; C A; ...; C A^(count-1)] for a C of any row count."""
    rows = [C]
    for _ in range(count - 1):
        rows.append(rows[-1] @ A)
    return np.vstack(rows)


def _markov(m: StateSpaceModel, gain: np.ndarray, count: int) -> np.ndarray:
    return (observability(m.A, m.C, _integer(count, "count", 1)) @ gain)[:, 0]


def impulse_response(m: StateSpaceModel, count: int) -> np.ndarray:
    """First ``count`` lags of the u -> y impulse response, [D, G_1, G_2, ...]."""
    count = _integer(count, "count", 1)
    out = np.empty(count)
    out[0] = m.D[0, 0]
    if count > 1:
        out[1:] = markov_g(m, count - 1)
    return out


def spectral_radius(m: StateSpaceModel) -> float:
    """Largest eigenvalue magnitude of A."""
    return float(np.max(np.abs(np.linalg.eigvals(m.A))))


def is_stable(m: StateSpaceModel) -> bool:
    """True iff every eigenvalue of A lies strictly inside the unit disk.

    The check uses a strict margin: spectral_radius(m) < 1 - STABILITY_MARGIN.
    """
    return spectral_radius(m) < 1.0 - STABILITY_MARGIN


def model_to_dict(m: StateSpaceModel) -> dict:
    """JSON-ready dictionary with row-major nested arrays."""
    return {
        "A": m.A.tolist(),
        "B": m.B.tolist(),
        "C": m.C.tolist(),
        "D": m.D.tolist(),
        "K": m.K.tolist(),
        "sigma_e2": m.sigma_e2,
        "n_x": m.n_x,
        "n_u": m.n_u,
        "n_y": m.n_y,
    }


def model_from_dict(d: dict) -> StateSpaceModel:
    """Inverse of :func:`model_to_dict`, with validation; a malformed document raises ConfigError."""
    try:
        m = StateSpaceModel(
            A=d["A"], B=d["B"], C=d["C"], D=d["D"], K=d["K"],
            sigma_e2=d["sigma_e2"],
        )
        for key in ("n_x", "n_u", "n_y"):
            if key in d and _integer(d[key], f"malformed model document: {key}", 1) != getattr(m, key):
                raise ConfigError(f"model document {key}={d[key]} does not match matrices ({getattr(m, key)})")
    except KeyError as missing:
        raise ConfigError(f"model document missing key {missing}") from missing
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"malformed model document: {err}") from err
    return m


def save_model(m: StateSpaceModel, path) -> None:
    """Write a model as JSON. Doubles round-trip bit-exactly."""
    Path(path).write_text(json.dumps(model_to_dict(m), indent=2) + "\n")


def load_model(path) -> StateSpaceModel:
    """Read a model written by :func:`save_model`; a malformed file raises ConfigError."""
    try:
        d = json.loads(Path(path).read_text())
    except ValueError as err:
        raise ConfigError(f"could not parse model file {path}: {err}") from err
    return model_from_dict(d)
