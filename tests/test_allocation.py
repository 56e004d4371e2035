"""Allocation budgets of the two largest buffers, on identify-n2000- and mc-example3-shaped records.

The data blocks build the N x (2p + 2f) design straight into the buffer
their QR overwrites, and each thread of the WLS bank whitens its rows
into one workspace and factors each row's one band in place, so a bank
on T threads holds at most T workspaces and T bands at once.
``tracemalloc`` sees numpy's buffers, from every thread, so the budgets
are in units of the design's bytes: one thread's, and T times it.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from parsimid import (
    SignalRecord,
    assemble_blocks,
    example2_system,
    fit_arx,
    parsim_wls,
    simulate,
)
from parsimid.arx_pre import predictor_to_innovations
from parsimid import estimators

F, P, N_TOTAL = 10, 20, 2000


def example2_record(n_total):
    system, input_filter = example2_system()
    rng = np.random.default_rng(0)
    u = lfilter(input_filter, [1.0], rng.standard_normal(n_total))
    return SignalRecord(u=u, y=simulate(system, u, np.sqrt(system.sigma_e2) * rng.standard_normal(n_total)))


@pytest.fixture(scope="module")
def record():
    return example2_record(N_TOTAL)


def traced(make):
    """make()'s result, and the bytes it allocated at its peak and still holds after."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, held - base


def design_bytes(blocks) -> int:
    return blocks.N * 2 * (blocks.f + blocks.p) * 8


def test_blocks_factor_the_design_without_a_copy(record):
    blocks, peak, held = traced(lambda: assemble_blocks(record, F, P))
    assert peak <= 1.25 * design_bytes(blocks)
    # The windows are views of the record; only the small R is kept.
    assert held <= 0.1 * design_bytes(blocks)
    assert np.shares_memory(blocks.Y, record.y) and np.shares_memory(blocks.U, record.u)


# (N_total, f, p, budget): identify-n2000's shape, and mc-example3's N and f,
# whose 20 rows make the bands the largest share of the bank's allocation.
BANK_SHAPES = pytest.mark.parametrize(
    "n_total, f, p, budget", [(N_TOTAL, F, P, 1.25), (1000, 20, 10, 1.45)], ids=["identify-n2000", "mc-example3"]
)


def bank_peak(monkeypatch, n_total, f, p, threads):
    """The design's bytes, and the peak allocation of a WLS bank on ``threads`` threads."""
    monkeypatch.setattr(estimators, "_bank_threads", lambda blocks: threads)
    rec = example2_record(n_total)
    blocks = assemble_blocks(rec, f, p)
    h = predictor_to_innovations(fit_arx(rec, p))
    return design_bytes(blocks), traced(lambda: parsim_wls(blocks, h))[1]


@BANK_SHAPES
def test_wls_bank_whitens_into_one_workspace(monkeypatch, n_total, f, p, budget):
    design, peak = bank_peak(monkeypatch, n_total, f, p, 1)
    assert peak <= budget * design


@BANK_SHAPES
@pytest.mark.parametrize("threads", [2, 3])
def test_each_bank_thread_whitens_into_one_workspace(monkeypatch, n_total, f, p, budget, threads):
    design, peak = bank_peak(monkeypatch, n_total, f, p, threads)
    assert peak <= threads * budget * design
