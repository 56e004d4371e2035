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
owns the three value rules every exported entry point of the package
applies: ``_freeze`` (the one conversion of an outside value to a float
array: it takes real numbers only, converts, reshapes, and returns them
finite and read-only), ``_integer`` (sizes, counts and seeds: an integer
type other than bool, at least a lower bound) and ``_variance`` (a finite
value >= 0).  The stages that only ``identify`` calls take its values as
they are.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .errors import ConfigError, DivergenceError

# identify's diagnostics["stable"] requires the spectral radius to stay this far inside the unit circle.
STABILITY_MARGIN = 1e-9


def _freeze(a, name: str, shape=None) -> np.ndarray:
    """``a`` as a finite, read-only float array, reshaped to ``shape`` (``-1``: flat) if one is given.

    The package's one conversion of an outside value, which takes real
    numbers only: entries of a numpy kind other than bool, integer or float
    (strings, even numeric ones, bytes, complex numbers, objects such as
    None), a ragged sequence or a size that does not fit ``shape`` is a
    ConfigError naming ``name``, and so is a NaN or infinite entry.
    """
    try:
        raw = np.asarray(a)
        if raw.dtype.kind not in "biuf":
            what = {"U": "string", "S": "bytes"}.get(raw.dtype.kind, raw.dtype.name)
            raise TypeError(f"could not convert {what} entries to float")
        out = np.array(raw, dtype=float)
        if shape is not None:
            out = out.reshape(shape)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name}: {err}") from None
    if not np.isfinite(out).all():
        raise ConfigError(f"{name} contains non-finite entries")
    out.setflags(write=False)
    return out


def _integer(value, name: str, low: int) -> int:
    """``operator.index(value)`` if at least ``low``: numpy integers pass, and a bool, 2.5 or 10.0 is a ConfigError."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def _variance(value, name: str) -> float:
    """``float(value)`` if finite and >= 0; NaN, inf, a negative value or a non-number is a ConfigError."""
    try:
        if np.isfinite(value) and value >= 0:
            return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    raise ConfigError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class StateSpaceModel:
    """Innovations-form model (A, B, C, D, K) with innovations variance.

    Attributes:
        A: State transition matrix, shape (n_x, n_x), n_x >= 1.
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
        A = np.atleast_2d(_freeze(self.A, "A"))
        if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
            raise ConfigError(f"A must be square with at least one state, got shape {A.shape}")
        n = A.shape[0]
        object.__setattr__(self, "A", A)
        for name, shape in (("B", (n, 1)), ("C", (1, n)), ("D", (1, 1)), ("K", (n, 1))):
            object.__setattr__(self, name, _freeze(getattr(self, name), name, shape))
        object.__setattr__(self, "sigma_e2", _variance(self.sigma_e2, "sigma_e2"))

    @property
    def n_x(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SignalRecord:
    """One input/output data record: equal-length, finite u and y."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u, y = _freeze(self.u, "u", -1), _freeze(self.y, "y", -1)
        if u.shape != y.shape:
            raise ConfigError(f"u and y must have equal length, got {u.size} and {y.size}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.u.size


def simulate(
    m: StateSpaceModel,
    u,
    e=None,
) -> np.ndarray:
    """Simulate the innovations-form recursion from the zero state.

    The model is SISO, so y = G(z) u + H(z) e with G = C (zI - A)^(-1) B + D
    and H = C (zI - A)^(-1) K + 1.  Both share the denominator
    det(zI - A) = ``np.poly(A)``, and a channel with gain b and feedthrough
    d has the numerator det(zI - A + b C) + (d - 1) det(zI - A).  Each
    signal is filtered in one ``lfilter`` pass with zero initial
    conditions, which is the zero initial state.
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
        ConfigError: On length or dimension mismatch, or a u or e that is not
            a sequence of finite numbers.
        DivergenceError: If the output leaves the finite range; the message
            reports the first offending step index.
    """
    u = _freeze(u, "u", -1)
    e = np.zeros_like(u) if e is None else _freeze(e, "e", -1)
    if u.shape != e.shape:
        raise ConfigError(f"u and e must have equal length, got {u.size} and {e.size}")
    den = np.poly(m.A)
    num_g, num_h = (np.poly(m.A - b @ m.C) + (d - 1.0) * den for b, d in ((m.B, m.D[0, 0]), (m.K, 1.0)))
    # divergence is detected explicitly, so let the overflow itself pass
    with np.errstate(over="ignore", invalid="ignore"):
        y = lfilter(num_g, den, u) + lfilter(num_h, den, e)
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
        "n_u": 1,  # SISO: B is (n_x, 1) and C is (1, n_x)
        "n_y": 1,
    }


def model_from_dict(d: dict) -> StateSpaceModel:
    """Inverse of :func:`model_to_dict`, with validation; a malformed document raises ConfigError."""
    try:
        m = StateSpaceModel(
            A=d["A"], B=d["B"], C=d["C"], D=d["D"], K=d["K"],
            sigma_e2=d["sigma_e2"],
        )
        for key, size in (("n_x", m.n_x), ("n_u", 1), ("n_y", 1)):
            if key in d and _integer(d[key], f"malformed model document: {key}", 1) != size:
                raise ConfigError(f"model document {key}={d[key]} does not match matrices ({size})")
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
