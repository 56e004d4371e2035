"""Exception types shared across the package, and the stage runner that applies them.

Each class carries a stable ``category`` string used by the command-line
front end as an error prefix on stderr.  :func:`_stage` is the one place
that turns a failure into a labelled error of one of these types.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ParsimidError(Exception):
    """Base class for all library errors."""

    category = "RUNTIME"


class ExcitationError(ParsimidError):
    """Data is not persistently exciting enough for the requested fit."""

    category = "EXCITATION"


class RankError(ParsimidError):
    """A matrix failed a rank or definiteness requirement."""

    category = "RANK"


class ConfigError(ParsimidError):
    """Invalid configuration, argument combination, or record shape."""

    category = "CONFIG"


class DivergenceError(ParsimidError):
    """A simulated state trajectory left the finite floating-point range."""

    category = "RUNTIME"


@contextmanager
def _stage(name: str):
    """Run a step that can fail, and raise its failure as ``"{name}: {message}"``.

    A ParsimidError keeps its type.  numpy's LinAlgError, from a LAPACK
    call that did not converge or met a singular matrix, becomes a
    RankError; no other code in the package raises or catches it.  The
    stages are ``identify``'s (blocks, arx, estimate, svd, shift, gains),
    a Monte Carlo trial's (data, aic) and the command line's (aic,
    simulate).
    """
    try:
        yield
    except ParsimidError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise RankError(f"{name}: {exc}") from exc
