"""Invariants of the identification pipeline on small random stable systems.

``benchmark.random_system`` draws a minimal stable system of order 1 to 3
(1 to 6 for the simulation properties) from each seed; the record is white
input of unit variance, with unit innovations where the property needs
noise.  Sign equivariance is checked on the paper's Examples 1 and 2.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import dlsim

from parsimid import (
    METHODS,
    InnovationsMarkov,
    RealizationConfig,
    SignalRecord,
    StateSpaceModel,
    assemble_blocks,
    identify,
    impulse_response,
    markov_g,
    markov_h,
    parsim_ols,
    parsim_wls,
    simulate,
)
from parsimid.benchmark import random_system

from helpers import example_record, ref_simulate, ref_simulate_ss2tf

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
orders = st.integers(1, 3)
P = 10


def rel(a, b) -> float:
    a, b = np.ravel(a), np.ravel(b)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def random_record(seed, n_x, noisy, n_total=600):
    system = random_system(seed, n_x)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n_total)
    e = rng.standard_normal(n_total) if noisy else None
    return system, SignalRecord(u=u, y=simulate(system, u, e))


def config(n_x, method):
    return RealizationConfig(n_x=n_x, f=n_x + 3, p=P, method=method)


class TestSimulate:
    @SETTINGS
    @given(seed=seeds, n_x=st.integers(1, 6))
    def test_matches_the_step_loop_and_dlsim(self, seed, n_x):
        system, rec = random_record(seed, n_x, noisy=False)
        e = np.random.default_rng(seed + 1).standard_normal(len(rec))
        y = simulate(system, rec.u, e)
        assert rel(y, ref_simulate(system, rec.u, e)) < 1e-12
        B_k = np.hstack([system.B, system.K])
        D_k = np.hstack([system.D, [[1.0]]])
        _, y_ref, _ = dlsim((system.A, B_k, system.C, D_k, 1.0), np.column_stack([rec.u, e]))
        assert rel(y, y_ref[:, 0]) < 1e-12

    @SETTINGS
    @given(seed=seeds, n_x=st.integers(1, 6))
    def test_matches_the_ss2tf_form_byte_for_byte(self, seed, n_x):
        # tobytes() tells -0.0 from 0.0; a drawn feedthrough exercises the (d - 1) den term.
        system, rec = random_record(seed, n_x, noisy=False)
        rng = np.random.default_rng(seed + 3)
        e = rng.standard_normal(len(rec))
        for m in (system, replace(system, D=rng.standard_normal())):
            for noise in (None, e):
                assert simulate(m, rec.u, noise).tobytes() == ref_simulate_ss2tf(m, rec.u, noise).tobytes()

    @SETTINGS
    @given(seed=seeds, n_x=st.integers(1, 6))
    def test_state_similarity_leaves_the_record(self, seed, n_x):
        system, rec = random_record(seed, n_x, noisy=False)
        rng = np.random.default_rng(seed + 2)
        T = rng.standard_normal((n_x, n_x)) + n_x * np.eye(n_x)
        T_inv = np.linalg.inv(T)
        similar = StateSpaceModel(
            A=T @ system.A @ T_inv, B=T @ system.B, C=system.C @ T_inv, D=system.D,
            K=T @ system.K, sigma_e2=system.sigma_e2,
        )
        e = rng.standard_normal(len(rec))
        assert rel(simulate(similar, rec.u, e), simulate(system, rec.u, e)) < 1e-10


class TestNoiseFreeRecovery:
    @SETTINGS
    @given(seed=seeds, n_x=orders)
    def test_every_method_recovers_the_input_markov_parameters(self, seed, n_x):
        system, rec = random_record(seed, n_x, noisy=False)
        g = markov_g(system, 30)
        errors = {
            method: rel(markov_g(identify(rec, config(n_x, method)).model, 30), g)
            for method in METHODS
        }
        for method in ("parsim", "parsim_opt", "classical"):
            assert errors[method] < 1e-8, errors
        # Without noise the order-p ARX that SSARX subtracts is one of many
        # exact fits, and the minimum-norm one is not an order-n_x predictor,
        # so SSARX lands near the system but not on it (up to 13 % on draws
        # of order 3).
        assert errors["ssarx"] < 0.25, errors


class TestWeightedBank:
    @SETTINGS
    @given(seed=seeds, n_x=orders)
    def test_zero_noise_weighting_is_the_ols_bank(self, seed, n_x):
        _, rec = random_record(seed, n_x, noisy=True)
        f = n_x + 3
        blocks = assemble_blocks(rec, f, P)
        ols = parsim_ols(blocks)
        wls = parsim_wls(blocks, InnovationsMarkov(h=np.zeros(f - 1)))
        assert rel(wls.gamma_lp, ols.gamma_lp) < 1e-10
        assert rel(np.concatenate(wls.g_rows), np.concatenate(ols.g_rows)) < 1e-10


class TestSignalScaling:
    @SETTINGS
    @given(
        seed=seeds,
        n_x=orders,
        a=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        method=st.sampled_from(METHODS),
    )
    def test_scaling_input_and_output(self, seed, n_x, a, b, method):
        # u -> a u and y -> b y: G scales by b / a, sigma_e2 by b^2, and the
        # noise model and the poles stay.
        _, rec = random_record(seed, n_x, noisy=True)
        scaled = SignalRecord(u=a * rec.u, y=b * rec.y)
        m = identify(rec, config(n_x, method)).model
        ms = identify(scaled, config(n_x, method)).model
        assert rel(markov_g(ms, 30), b / a * markov_g(m, 30)) < 1e-8
        assert rel(markov_h(ms, 30), markov_h(m, 30)) < 1e-8
        assert abs(ms.sigma_e2 - b**2 * m.sigma_e2) < 1e-10 * b**2 * m.sigma_e2
        eig, eig_s = np.linalg.eigvals(m.A), np.linalg.eigvals(ms.A)
        assert np.max(np.abs(np.sort_complex(eig_s) - np.sort_complex(eig))) < 1e-8


class TestSignEquivariance:
    # Examples 1 and 2 at N = 2000, f = 10, p = 12: parsim_opt's bank is large
    # enough to run on every usable CPU, so this also checks the threaded bank.
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name, n_x", [("example1", 3), ("example2", 2)])
    @settings(SETTINGS, max_examples=4)
    @given(seed=seeds, signs=st.sampled_from([(1, -1), (-1, 1), (-1, -1)]))
    def test_flipping_signs_flips_the_model_exactly(self, name, n_x, method, seed, signs):
        # u -> s_u u and y -> s_y y: G flips by s_u s_y, and the noise model and
        # sigma_e2 stay.  Every step is odd or even in the data, so exactly.
        rec = example_record(name, seed, noisy=True)
        s_u, s_y = signs
        cfg = RealizationConfig(n_x=n_x, f=10, p=12, method=method)
        m = identify(rec, cfg).model
        mf = identify(SignalRecord(u=s_u * rec.u, y=s_y * rec.y), cfg).model
        np.testing.assert_array_equal(impulse_response(mf, 30), s_u * s_y * impulse_response(m, 30))
        np.testing.assert_array_equal(markov_h(mf, 30), markov_h(m, 30))
        assert mf.sigma_e2 == m.sigma_e2
