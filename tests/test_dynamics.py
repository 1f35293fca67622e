"""Propagators, observables, closed-form inversion curves."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mprabi import dynamics, fockmath, rwa
from mprabi.config import parse_config
from mprabi.fockmath import FockSpace, displacement_matrix
from mprabi.model import ModelParams, build_full, ladder_energies
from mprabi.runner import resolve_params
from mprabi.rwa import rabi_frequency, resonant_omega0
from mprabi.dynamics import (
    _RWA_BLOCK,
    NORM_TOL,
    InitialStateSpec,
    IntegratorWarning,
    NormDriftError,
    ProjectionError,
    TruncationError,
    evolve_numeric,
    evolve_rwa,
    inversion_coherent,
    inversion_fock,
    observables,
    prepare_initial,
    project_numeric,
    project_secular,
    sample_count,
    sample_steps,
)

PERIOD = 2.0 * math.pi
DT = PERIOD / 1000.0
REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted((REPO / "configs").glob("*.json"))


def rk4_stepwise(h, psi, dt, n_steps, sample_every):
    """Classic per-step RK4 states at the steps evolve_numeric samples."""
    steps, states = [0], [psi]
    for step in range(1, n_steps + 1):
        k1 = -1j * (h @ psi)
        k2 = -1j * (h @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (h @ (psi + (0.5 * dt) * k2))
        k4 = -1j * (h @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % sample_every == 0 or step == n_steps:
            steps.append(step)
            states.append(psi)
    return np.array(steps), np.array(states)


def rk4_long_double(h, psi, dt, n_steps, sample_every):
    """RK4 states at every sample_every-th step, with R and its interval power
    formed in long double (n_steps must be a multiple of sample_every)."""
    z = (-1j * np.longdouble(dt)) * h.real.astype(np.longdouble)
    eye = np.eye(h.shape[0], dtype=np.clongdouble)
    step = eye + z / 4
    for k in (3, 2, 1):
        step = eye + (z @ step) / k
    interval, power, k = eye, step, sample_every
    while k:
        if k & 1:
            interval = interval @ power
        power, k = power @ power, k >> 1
    states = [psi.astype(np.clongdouble)]
    for _ in range(n_steps // sample_every):
        states.append(interval @ states[-1])
    return np.array(states)


def expansion_long_double(basis, coeffs, rates, x):
    """W, P, the squared norm and the last state of the eigenbasis expansion
    psi(x) = basis @ (coeffs * exp(rates * x)) at every position of the long
    double array ``x`` at once, unblocked and unpruned: the float64 basis,
    coefficients and rates are carried over exactly and every factor, product
    and sum is taken in long double."""
    factors = np.exp(np.outer(rates.astype(np.clongdouble), x))
    psi = basis.astype(np.longdouble) @ (coeffs.astype(np.clongdouble)[:, None] * factors)
    probs = np.abs(psi) ** 2
    n_max = basis.shape[0] // 2
    down, up = probs[:n_max], probs[n_max:]
    return np.sum(up - down, axis=0), (down + up).T, np.sum(probs, axis=0), psi[:, -1]


def assert_close_to_long_double(traj, exact, bound):
    inversion, dist, norm, final = exact
    assert np.max(np.abs(traj.inversion - inversion)) <= bound
    assert np.max(np.abs(traj.photon_dist - dist)) <= bound
    assert np.max(np.abs(traj.norm - norm)) <= bound
    assert np.max(np.abs(traj.final_state - final)) <= bound


def two_photon_params():
    omega0 = resonant_omega0(2, omega=1.0, lambda_e=0.1)
    return ModelParams(omega=1.0, omega0=omega0, lambda_g=0.0, lambda_e=0.1, lambda_eg=0.02)


@pytest.mark.parametrize("call, message", [
    (lambda: InitialStateSpec("sideways"), "kind must be one of"),
    (lambda: InitialStateSpec("excited-fock", n_photons=-1), "n_photons must be >= 0"),
    (lambda: InitialStateSpec("ground-coherent", mean_photons=-0.5), "mean_photons must be >= 0"),
    (lambda: InitialStateSpec("ground-coherent", mean_photons=math.nan), "mean_photons must be >= 0"),
    (lambda: project_secular(two_photon_params(), 2, np.zeros((2, 4)), 1),
     "psi0 must be a flat vector of even length"),
    (lambda: project_secular(two_photon_params(), 2, np.zeros(5), 1),
     "psi0 must be a flat vector of even length"),
    (lambda: inversion_fock(two_photon_params(), 0, 0.0), "photon order must be >= 1, got 0"),
    (lambda: inversion_coherent(two_photon_params(), 0, 1.0, 0.0), "photon order must be >= 1, got 0"),
    (lambda: inversion_coherent(two_photon_params(), 2, -1.0, 0.0), "mean_photons must be >= 0"),
], ids=["unknown-kind", "negative-n-photons", "negative-mean", "nan-mean", "psi0-2d",
        "psi0-odd", "fock-order-0", "coherent-order-0", "coherent-negative-mean"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestPrepareInitial:
    def test_excited_fock_vacuum(self):
        params = two_photon_params()
        space = FockSpace(8)
        state = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        expect = np.zeros(16, dtype=complex)
        expect[8] = 1.0
        assert state.dtype == complex
        assert np.array_equal(state, expect)

    def test_ground_coherent_zero_mean(self):
        params = two_photon_params()
        state = prepare_initial(
            InitialStateSpec("ground-coherent", mean_photons=0.0), params, FockSpace(8)
        )
        expect = np.zeros(16, dtype=complex)
        expect[0] = 1.0
        assert np.array_equal(state, expect)

    def test_ground_coherent_poisson_marginal(self):
        params = two_photon_params()
        space = FockSpace(80)
        state = prepare_initial(
            InitialStateSpec("ground-coherent", mean_photons=20.0), params, space
        )
        _, p = observables(state)
        poisson = np.array(
            [math.exp(-20.0) * 20.0**k / math.factorial(k) for k in range(80)]
        )
        assert np.max(np.abs(p - poisson)) < 1e-12
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nbar", [0.0, 1.0, 10.0, 60.0])
    def test_coherent_start_is_column_zero_of_the_displacement(self, nbar, monkeypatch):
        # the start is one vector, bit for bit the k = 0 column of the matrix,
        # which it does not build: the matrix's reservation is refused
        def refused(*shape):
            raise MemoryError("no matrix for one column")

        space = FockSpace(120)
        column = displacement_matrix(-math.sqrt(nbar), space)[:, 0]
        monkeypatch.setattr(fockmath, "_reserve", refused)
        state = prepare_initial(
            InitialStateSpec("ground-coherent", mean_photons=nbar), two_photon_params(), space
        )
        assert state[space.down].real.tobytes() == column.tobytes()
        assert not state[space.down].imag.any() and not state[space.up].any()

    def test_coherent_truncation_guard(self):
        params = two_photon_params()
        with pytest.raises(TruncationError):
            prepare_initial(
                InitialStateSpec("ground-coherent", mean_photons=20.0), params, FockSpace(40)
            )

    def test_fock_index_guard(self):
        params = two_photon_params()
        with pytest.raises(TruncationError):
            prepare_initial(InitialStateSpec("excited-fock", n_photons=8), params, FockSpace(8))



class TestObservables:
    def test_pure_up_vacuum(self):
        state = np.array([0, 0, 0, 1, 0, 0], dtype=complex)
        w, p = observables(state)
        assert w == 1.0
        assert np.array_equal(p, np.array([1.0, 0.0, 0.0]))

    def test_balanced_superposition(self):
        amps = np.zeros(6, dtype=complex)
        amps[0] = amps[3] = 1 / math.sqrt(2)
        w, p = observables(amps)
        assert w == pytest.approx(0.0, abs=1e-15)
        assert p[0] == pytest.approx(1.0, abs=1e-15)

    def test_distribution_sums_to_norm(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=20) + 1j * rng.normal(size=20)
        w, p = observables(amps)
        assert float(np.sum(p)) == pytest.approx(float(np.sum(np.abs(amps) ** 2)), rel=1e-14)
        assert abs(w) <= float(np.sum(p)) + 1e-14

    def test_block_matches_each_column_bitwise(self):
        # one routine serves a state and a (dim, k) block of states alike
        rng = np.random.default_rng(11)
        block = rng.normal(size=(60, 7)) + 1j * rng.normal(size=(60, 7))
        w, p = observables(block)
        assert w.shape == (7,) and p.shape == (30, 7)
        for j in range(7):
            w_j, p_j = observables(block[:, j])
            assert w_j == w[j]
            assert np.array_equal(p_j, p[:, j])

    @pytest.mark.parametrize("propagator", ["numeric", "rwa"])
    def test_last_sample_is_the_final_state(self, propagator):
        params = two_photon_params()
        space = FockSpace(20)
        psi0 = prepare_initial(
            InitialStateSpec("ground-coherent", mean_photons=2.0), params, space
        )
        if propagator == "numeric":
            traj = evolve_numeric(
                project_numeric(build_full(params, space), psi0), 30.0, DT, sample_every=300,
                period=PERIOD,
            )
        else:
            traj = evolve_rwa(project_secular(params, 2, psi0, 1), 30.0, 3.0, period=PERIOD)
        w, p = observables(traj.final_state)
        assert w == traj.inversion[-1]
        assert np.array_equal(p, traj.photon_dist[-1])

    @pytest.mark.parametrize("propagator", ["numeric", "rwa"])
    @pytest.mark.parametrize("start", [
        InitialStateSpec("excited-fock"), InitialStateSpec("ground-coherent", mean_photons=4.0),
    ], ids=["vacuum", "coherent"])
    def test_energy_is_the_weighted_sum_over_every_column(self, propagator, start):
        # sum_j |c_j|^2 |r_j|^(2k) E_j over all eigenvectors, |r_j| = 1 on
        # the secular route; the expansion forms it from its factors over the
        # columns it keeps
        params = two_photon_params()
        space = FockSpace(40)
        psi0 = prepare_initial(start, params, space)
        steps = sample_steps(30.0, DT, 100)
        if propagator == "numeric":
            h = build_full(params, space)
            traj = evolve_numeric(project_numeric(h, psi0), 30.0, DT, 100, period=PERIOD)
            energies, vectors = np.linalg.eigh(h)
            coeffs = vectors.T @ psi0
            gains = np.exp(np.outer(steps, 2.0 * dynamics._rk4_log_gain(DT * energies)[0]))
        else:
            projection = project_secular(params, 2, psi0, 2)
            traj = evolve_rwa(projection, 30.0, DT, 100, period=PERIOD)
            energies, coeffs = projection.energies, projection.coeffs
            gains = np.ones((steps.size, energies.size))
        expected = gains @ (np.abs(coeffs) ** 2 * energies)
        assert np.max(np.abs(traj.energy - expected) / np.abs(expected)) < 1e-14


class TestSampleCount:
    @pytest.mark.parametrize("t_end, dt, sample_every", [
        (10.0, 1.0, 1), (10.0, 1.0, 5), (10.0, 1.0, 3), (10.0, 1.0, 10), (10.0, 1.0, 11),
        (0.2, 1.0, 4), (7.0, 0.5, 2), (100.0, 0.1, 7),
    ], ids=["every", "on-stride", "off-stride", "one-interval", "past-end", "one-step",
            "even", "long"])
    def test_count_is_the_grid_length(self, t_end, dt, sample_every):
        # the grid the routes sample on: step 0, every sample_every steps and
        # the last of round(t_end / dt) steps, at least one
        n_steps = max(1, round(t_end / dt))
        expected = sorted({*range(0, n_steps + 1, sample_every), n_steps})
        steps = sample_steps(t_end, dt, sample_every)
        assert steps.dtype == np.int64
        assert steps.tolist() == expected
        assert sample_count(t_end, dt, sample_every) == len(expected)

    def test_count_no_array_can_hold(self):
        # counted, never allocated: the count alone says it cannot be held
        with pytest.raises(ValueError, match="^Maximum allowed size exceeded$"):
            sample_count(1e300, 1.0, 1)
        assert sample_count(1e300, 1.0, int(1e300)) == 2  # steps 0 and the last
        with pytest.raises(OverflowError):
            sample_count(1e300, 1e-10, 1)

    @pytest.mark.parametrize("args", [(1.0, -0.1, 1), (1.0, 0.0, 1), (-1.0, 0.1, 1),
                                      (1.0, 0.1, 0), (1.0, math.nan, 1)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError, match="need dt, t_end > 0"):
            sample_count(*args)


class TestEvolveNumeric:
    def test_stationary_excited_state_uncoupled(self):
        params = ModelParams(omega=1.0, omega0=2.0)
        space = FockSpace(6)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj = evolve_numeric(
            project_numeric(build_full(params, space), psi0), 20.0, DT, sample_every=100,
            period=PERIOD,
        )
        assert np.max(np.abs(traj.inversion - 1.0)) < 1e-9

    def test_displaced_eigenstate_frozen_distribution(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_e=0.25)
        space = FockSpace(25)
        vec = np.zeros(50, dtype=complex)
        vec[space.up] = displacement_matrix(-0.25, space)[:, 0]
        traj = evolve_numeric(
            project_numeric(build_full(params, space), vec), 30.0, DT, sample_every=200,
            period=PERIOD,
        )
        drift = np.max(np.abs(traj.photon_dist - traj.photon_dist[0]))
        assert drift < 1e-8

    def test_energy_conservation(self):
        params = two_photon_params()
        space = FockSpace(16)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj = evolve_numeric(
            project_numeric(build_full(params, space), psi0), 200.0, DT, sample_every=500,
            period=PERIOD,
        )
        rel = np.abs(traj.energy - traj.energy[0]) / abs(traj.energy[0])
        assert np.max(rel) < 1e-6

    def test_trajectory_invariants(self):
        params = two_photon_params()
        space = FockSpace(16)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj = evolve_numeric(
            project_numeric(build_full(params, space), psi0), 60.0, DT, sample_every=100,
            period=PERIOD,
        )
        row_sums = np.sum(traj.photon_dist, axis=1)
        assert np.max(np.abs(row_sums - traj.norm)) < 1e-12
        assert np.all(traj.inversion <= 1.0 + 1e-8)
        assert np.all(traj.inversion >= -1.0 - 1e-8)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.final_state is not None

    def test_norm_drift_aborts_with_hint(self):
        # a top-of-ladder state under a huge step blows the norm immediately
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.01)
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock", n_photons=29), params, space)
        with pytest.raises(NormDriftError, match="dt"):
            evolve_numeric(
                project_numeric(build_full(params, space), psi0), 10.0, 1.0, sample_every=1,
                period=PERIOD,
            )

    def test_nan_norm_aborts(self):
        # the folded propagator overflows at this step long before the first
        # sample; the NaN norm must fail the check, not slip past it, and be
        # named without its non-finite value, with no numpy overflow warning
        params = ModelParams(omega=1.0, omega0=2.0, lambda_e=0.1, lambda_eg=0.02)
        space = FockSpace(40)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        with pytest.raises(NormDriftError, match=r"^\|psi\|\^2 is not finite at t = 318.31 periods "):
            evolve_numeric(
                project_numeric(build_full(params, space), psi0), 4000.0, 1.0, sample_every=2000,
                period=PERIOD,
            )

    # the state starts on the top level, so every run here is truncated
    @pytest.mark.filterwarnings("ignore::mprabi.dynamics.IntegratorWarning")
    def test_norm_drift_hint_names_a_passing_dt(self):
        # same run as above: the hinted step, in periods, must carry it
        # through, while twice that step (one halving fewer) still drifts too far
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.01)
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock", n_photons=29), params, space)
        h = build_full(params, space)
        with pytest.raises(NormDriftError) as info:
            evolve_numeric(project_numeric(h, psi0), 10.0, 1.0, sample_every=1, period=PERIOD)
        hinted = float(re.search(r"= (\S+) periods keeps", str(info.value)).group(1)) * PERIOD
        traj = evolve_numeric(project_numeric(h, psi0), 10.0, hinted, sample_every=1, period=PERIOD)
        assert np.max(np.abs(traj.norm - 1.0)) <= NORM_TOL
        with pytest.raises(NormDriftError):
            evolve_numeric(project_numeric(h, psi0), 10.0, 2.0 * hinted, 1, period=PERIOD)

    @pytest.mark.parametrize("target", [5, _RWA_BLOCK + 40])
    def test_truncation_warns_once_at_first_offending_sample(self, monkeypatch, target):
        # the first quarter of a vacuum Rabi cycle moves population into
        # |down, 1>, one of the top five levels at n_max = 6; the tolerance
        # is the occupancy at sample `target`, inside a block of the expansion
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.01)
        space = FockSpace(6)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        h = build_full(params, space)
        run = dict(t_end=700 * 40 * DT, dt=DT, sample_every=40)
        monkeypatch.setattr(dynamics, "TRUNCATION_TOL", 2.0)
        quiet = evolve_numeric(project_numeric(h, psi0), **run, period=PERIOD)
        top = np.sum(quiet.photon_dist[:, -5:], axis=1)
        tol = top[target]
        first = int(np.argmax(top >= tol))
        assert first % _RWA_BLOCK and (first > _RWA_BLOCK) == (target > _RWA_BLOCK)
        monkeypatch.setattr(dynamics, "TRUNCATION_TOL", tol)
        with pytest.warns(IntegratorWarning) as record:
            traj = evolve_numeric(project_numeric(h, psi0), **run, period=PERIOD)
        assert not traj.truncation_ok
        messages = [str(w.message) for w in record if w.category is IntegratorWarning]
        assert len(messages) == 1
        reported = float(re.search(r"at t = (\S+) periods;", messages[0]).group(1))
        assert reported == float(f"{traj.times[first] / PERIOD:.6g}")

    def test_norm_drift_raises_before_any_truncation_warning(self):
        # the top-of-ladder start is truncated from its first sample; under a
        # huge step its norm drifts too, and the drift is raised with no
        # top-five warning before it, while the hinted step runs and warns
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.01)
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock", n_photons=29), params, space)
        h = build_full(params, space)
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            with pytest.raises(NormDriftError) as info:
                evolve_numeric(project_numeric(h, psi0), 10.0, 1.0, sample_every=1, period=PERIOD)
        assert not [w for w in log if issubclass(w.category, IntegratorWarning)]
        hinted = float(re.search(r"= (\S+) periods keeps", str(info.value)).group(1)) * PERIOD
        with pytest.warns(IntegratorWarning, match="at t = 0 periods;"):
            traj = evolve_numeric(project_numeric(h, psi0), 10.0, hinted, 1, period=PERIOD)
        assert not traj.truncation_ok

    def test_closer_to_long_double_rk4_than_folded_route(self):
        # dim 80, two-photon couplings, coherent start, 400k steps, against
        # RK4 carried in long double: raising the float64 step matrix to the
        # sample interval errs by 7.5e-12 in W here; the eigenbasis route must
        # stay well inside that
        omega0 = resonant_omega0(2, omega=1.0, lambda_e=0.1)
        params = ModelParams(omega=1.0, omega0=omega0, lambda_e=0.1, lambda_eg=0.02)
        space = FockSpace(40)
        h = build_full(params, space)
        coherent = InitialStateSpec("ground-coherent", mean_photons=10.0)
        psi0 = prepare_initial(coherent, params, space)
        dt, n_steps, every = 1e-3, 400_000, 10_000
        traj = evolve_numeric(project_numeric(h, psi0), n_steps * dt, dt, every, period=PERIOD)
        states = rk4_long_double(h, psi0, dt, n_steps, every)
        probs = np.abs(states) ** 2
        inversion = (np.sum(probs[:, 40:], axis=1) - np.sum(probs[:, :40], axis=1)).astype(float)
        assert np.max(np.abs(traj.inversion - inversion)) < 2e-12
        assert np.max(np.abs(traj.final_state - states[-1].astype(complex))) < 2e-12

    def test_matches_long_double_expansion(self):
        # the blocked RK4 expansion V (c * r^k) against one long double
        # evaluation of it, log r from the float64 energies; the last step
        # falls off the sampling interval, so the last block builds its own
        # table of powers
        params = two_photon_params()
        space = FockSpace(30)
        h = build_full(params, space)
        coherent = InitialStateSpec("ground-coherent", mean_photons=4.0)
        psi0 = prepare_initial(coherent, params, space)
        traj = evolve_numeric(project_numeric(h, psi0), 200.0, DT, sample_every=71, period=PERIOD)
        assert len(traj) > _RWA_BLOCK and traj.pruned_weight == 0.0
        energies, vectors = np.linalg.eigh(h)
        log_mod, phase = dynamics._rk4_log_gain(DT * energies)
        steps = sample_steps(200.0, DT, 71).astype(np.longdouble)
        exact = expansion_long_double(vectors, vectors.T @ psi0, log_mod + 1j * phase, steps)
        # one unblocked complex128 expansion errs by 2.7e-14 here; the bound
        # is twice that
        assert_close_to_long_double(traj, exact, 5.4e-14)

    # random states fill the top levels, which these runs do not check
    @pytest.mark.filterwarnings("ignore::mprabi.dynamics.IntegratorWarning")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_max=st.integers(min_value=2, max_value=8),
        lambda_e=st.floats(min_value=0.0, max_value=0.3),
        lambda_eg=st.floats(min_value=0.0, max_value=0.1),
        n_steps=st.integers(min_value=1, max_value=120),
        sample_every=st.integers(min_value=1, max_value=150),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(n_max=4, lambda_e=0.1, lambda_eg=0.05, n_steps=100, sample_every=7, seed=1)
    @example(n_max=4, lambda_e=0.1, lambda_eg=0.05, n_steps=30, sample_every=10_000_000, seed=2)
    def test_folded_matches_stepwise_rk4(
        self, n_max, lambda_e, lambda_eg, n_steps, sample_every, seed
    ):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_e=lambda_e, lambda_eg=lambda_eg)
        space = FockSpace(n_max)
        h = build_full(params, space)
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi0 = vec / np.linalg.norm(vec)
        traj = evolve_numeric(
            project_numeric(h, psi0), n_steps * DT, DT, sample_every, period=PERIOD
        )
        steps, states = rk4_stepwise(h, psi0, DT, n_steps, sample_every)
        assert np.array_equal(traj.times, steps * DT)
        probs = np.abs(states) ** 2
        inversion = np.sum(probs[:, n_max:], axis=1) - np.sum(probs[:, :n_max], axis=1)
        assert np.max(np.abs(traj.inversion - inversion)) < 1e-12
        assert np.max(np.abs(traj.photon_dist - probs[:, :n_max] - probs[:, n_max:])) < 1e-12
        assert np.max(np.abs(traj.final_state - states[-1])) < 1e-12

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_norm_drift_within_bound(self, path):
        # RK4 multiplies the weight on eigenstate j by |R(-i dt E_j)|^2 per
        # step, so the norm at every sample follows from eigh alone
        config = parse_config(path.read_text())
        params, _ = resolve_params(config)
        space = FockSpace(config.n_max)
        period = 2.0 * math.pi / params.omega
        dt = config.dt * period
        n_steps = max(1, int(round(config.t_end * period / dt)))
        steps = np.append(np.arange(0, n_steps + 1, config.sample_every), n_steps)
        psi0 = prepare_initial(
            InitialStateSpec(config.initial_kind, config.n_photons, config.mean_photons),
            params,
            space,
        )
        energies, vectors = np.linalg.eigh(build_full(params, space))
        weights = np.abs(vectors.conj().T @ psi0) ** 2
        z = -1j * dt * energies
        gain = np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) ** 2
        norms = np.exp(np.outer(steps, np.log(gain))) @ weights
        drift = float(np.max(np.abs(norms - 1.0)))
        assert drift < NORM_TOL, f"predicted |norm - 1| = {drift:.3e}"

    def test_jc_rabi_period(self):
        # single-photon exchange: measured period against pi / lambda_eg
        lam = 0.01
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=lam)
        space = FockSpace(8)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        t_half = math.pi / (2.0 * lam)
        traj = evolve_numeric(
            project_numeric(build_full(params, space), psi0), 1.2 * t_half, DT, sample_every=20,
            period=PERIOD,
        )
        i = int(np.argmin(traj.inversion))
        t, w = traj.times, traj.inversion
        denom = w[i - 1] - 2 * w[i] + w[i + 1]
        t_min = t[i] + 0.5 * (t[i + 1] - t[i]) * (w[i - 1] - w[i + 1]) / denom
        measured = 2.0 * t_min
        assert abs(measured - math.pi / lam) / (math.pi / lam) < 1e-3

    def test_rejects_bad_arguments(self):
        params = two_photon_params()
        space = FockSpace(4)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        h = build_full(params, space)
        with pytest.raises(ValueError):
            evolve_numeric(project_numeric(h, psi0), 1.0, -0.1, period=PERIOD)
        with pytest.raises(ValueError):
            evolve_numeric(project_numeric(h, psi0), 1.0, 0.1, sample_every=0, period=PERIOD)

    def test_rejects_complex_hamiltonian(self):
        # the eigenbasis route diagonalizes the real part only
        params = two_photon_params()
        space = FockSpace(4)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        matrix = build_full(params, space).astype(complex)
        matrix[0, 1] += 1e-3j
        matrix[1, 0] -= 1e-3j
        with pytest.raises(ValueError, match="real"):
            project_numeric(matrix, psi0)

    def test_accepts_complex_hamiltonian_with_real_entries(self):
        params = two_photon_params()
        space = FockSpace(4)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        h = build_full(params, space)
        complex_h, real_h = project_numeric(h.astype(complex), psi0), project_numeric(h, psi0)
        assert np.array_equal(complex_h.energies, real_h.energies)
        assert np.array_equal(complex_h.coeffs, real_h.coeffs)

    def test_rejects_state_of_another_dimension(self):
        params = two_photon_params()
        h = build_full(params, FockSpace(4))
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, FockSpace(5))
        with pytest.raises(ValueError, match="dimensions disagree"):
            project_numeric(h, psi0)

    def test_a_refused_reservation_stops_it(self, monkeypatch):
        # the eigh's peak is reserved before any work, once the state fits H
        def refused(*shape):
            raise MemoryError(f"refused {shape}")

        params = two_photon_params()
        space = FockSpace(8)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        monkeypatch.setattr(dynamics, "_reserve", refused)
        with pytest.raises(MemoryError, match=re.escape(f"({dynamics._EIGH_MATRICES}, 16, 16)")):
            project_numeric(build_full(params, space), psi0)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/statm")
    def test_eigh_peak_within_the_reserved_matrices(self):
        # tracemalloc does not see LAPACK's copy and workspace, so a fresh
        # process reads its resident set: from just before project_numeric,
        # with H built and BLAS warmed up, to the peak across it, it grows by
        # more than the eigenvectors it keeps and by at most the
        # _EIGH_MATRICES (dim x dim) float64 it reserves (4.11 measured here,
        # dim 2400; 3.4 at dim 1200-2000, where less of the workspace is new)
        script = (
            "import os, resource, numpy as np\n"
            "from mprabi.dynamics import InitialStateSpec, prepare_initial, project_numeric\n"
            "from mprabi.fockmath import FockSpace\n"
            "from mprabi.model import ModelParams, build_full\n"
            "a = np.random.default_rng(0).random((400, 400))\n"
            "np.linalg.eigh(a + a.T), a @ a\n"
            "params = ModelParams(omega=1.0, omega0=2.0, lambda_e=0.1, lambda_eg=0.02)\n"
            "space = FockSpace(1200)\n"
            "psi0 = prepare_initial(InitialStateSpec('excited-fock'), params, space)\n"
            "h = build_full(params, space)\n"
            "with open('/proc/self/statm') as statm:\n"
            "    now = int(statm.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "projection = project_numeric(h, psi0)\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
            "print((peak - now) / (8 * space.dim**2))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert 1.0 < float(done.stdout) <= dynamics._EIGH_MATRICES


class TestEvolveRwa:
    def test_ground_dressed_state_is_stationary(self):
        params = ModelParams(omega=1.0, omega0=2.01, lambda_g=0.15, lambda_e=0.1, lambda_eg=0.02)
        space = FockSpace(30)
        # the lowest unmixed state: |down, 0> displaced by lambda_g/omega (omega = 1)
        vec = np.zeros(space.dim)
        vec[space.down] = displacement_matrix(params.lambda_g, space)[:, 0]
        traj = evolve_rwa(project_secular(params, 2, vec, 1), 500.0, 500.0 / 59, period=PERIOD)
        assert np.max(np.abs(traj.inversion - traj.inversion[0])) < 1e-12
        assert np.max(np.abs(traj.photon_dist - traj.photon_dist[0])) < 1e-12

    def test_matches_closed_form_fock_inversion(self):
        params = two_photon_params()
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj = evolve_rwa(project_secular(params, 2, psi0, 1), 3000.0, 3000.0 / 99, period=PERIOD)
        closed = inversion_fock(params, 2, traj.times)
        assert np.max(np.abs(traj.inversion - closed)) < 1e-8

    def test_projection_completeness_failure(self):
        params = two_photon_params()
        space = FockSpace(12)
        psi0 = prepare_initial(
            InitialStateSpec("excited-fock", n_photons=11), params, space
        )
        with pytest.raises(ProjectionError):
            evolve_rwa(project_secular(params, 2, psi0, 1), 10.0, 2.5, period=PERIOD)

    def test_a_nan_basis_fails_the_projection(self):
        # lambda_eg = 1e160 omega squares past the float range in the order-2
        # shifts and the secular basis comes out NaN: the capture check fails
        # on it, where a NaN capture passed it and the run wrote a NaN CSV
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=1e160)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, FockSpace(12))
        with np.errstate(all="ignore"), pytest.raises(ProjectionError, match="captures only nan "):
            project_secular(params, 1, psi0, 2)

    def test_agrees_with_numeric_jc(self):
        # cross-propagator check in the plain single-photon regime
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        space = FockSpace(10)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj_num = evolve_numeric(
            project_numeric(build_full(params, space), psi0), 320.0, DT, sample_every=100,
            period=PERIOD,
        )
        traj_rwa = evolve_rwa(project_secular(params, 1, psi0, 1), 320.0, DT, 100, period=PERIOD)
        assert np.max(np.abs(traj_num.inversion - traj_rwa.inversion)) < 0.05


    def test_second_order_keeps_phase_with_exact_propagation(self):
        # over three two-photon Rabi periods the first-order secular curve
        # slips out of phase with eigh propagation; the second-order one stays
        params = two_photon_params()
        space = FockSpace(20)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        t_end = 3.0 * 2.0 * math.pi / rabi_frequency(params, 2, 2)
        first = evolve_rwa(project_secular(params, 2, psi0, 1), t_end, t_end / 399, period=PERIOD)
        second = evolve_rwa(project_secular(params, 2, psi0, 2), t_end, t_end / 399, period=PERIOD)
        grid = first.times
        evals, evecs = np.linalg.eigh(build_full(params, space))
        coeffs = evecs.conj().T @ psi0
        psi_t = np.abs(evecs @ (np.exp(-1j * np.outer(evals, grid)) * coeffs[:, None])) ** 2
        exact = np.sum(psi_t[space.up], axis=0) - np.sum(psi_t[space.down], axis=0)
        first, second = first.inversion, second.inversion
        assert np.max(np.abs(first - exact)) > 0.5
        assert np.max(np.abs(second - exact)) < 0.05

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize(
        "n_t",
        # B + 1 and 2B + 1 leave a lone last sample in a block of its own; the
        # last step of 3B + 17 falls off the sampling interval, so it takes
        # its factor directly, not from the phase table
        [2, _RWA_BLOCK, _RWA_BLOCK + 1, 2 * _RWA_BLOCK + 1, 3 * _RWA_BLOCK + 17],
    )
    def test_blocks_match_one_shot_expansion(self, n_t, order):
        # the blocked, anchored expansion against one long double evaluation
        # of the same expansion, phases from the float64 energies and steps
        n_steps, sample_every = {
            2: (5, 7),
            _RWA_BLOCK: (_RWA_BLOCK - 1, 1),
            _RWA_BLOCK + 1: (_RWA_BLOCK, 1),
            2 * _RWA_BLOCK + 1: (6 * _RWA_BLOCK, 3),
            3 * _RWA_BLOCK + 17: (6 * _RWA_BLOCK + 31, 2),
        }[n_t]
        params = two_photon_params()
        psi0 = prepare_initial(
            InitialStateSpec("ground-coherent", mean_photons=4.0), params, FockSpace(30)
        )
        projection = project_secular(params, 2, psi0, order)
        dt = 5000.0 / n_steps
        traj = evolve_rwa(projection, 5000.0, dt, sample_every, period=PERIOD)
        assert len(traj) == n_t and traj.pruned_weight == 0.0
        basis, energies, coeffs, _ = projection
        x = sample_steps(5000.0, dt, sample_every).astype(np.longdouble) * np.longdouble(dt)
        exact = expansion_long_double(basis, coeffs, -1j * energies, x)
        # one unblocked complex128 expansion of the whole grid errs by up to
        # 9.6e-13 on these runs; the bound is twice that
        assert_close_to_long_double(traj, exact, 2e-12)
        w, p = observables(traj.final_state)
        assert w == traj.inversion[-1]
        assert np.array_equal(p, traj.photon_dist[-1])

    @pytest.mark.parametrize("propagator", ["numeric", "rwa"])
    def test_lone_last_sample_block(self, propagator):
        # B + 1 samples on a uniform grid: the last sample is a block of its
        # own, and both routes follow their references through it, RK4 eigh
        # propagation and the secular closed form
        params = two_photon_params()
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        t_end = _RWA_BLOCK * 100 * DT
        if propagator == "numeric":
            h = build_full(params, space)
            traj = evolve_numeric(project_numeric(h, psi0), t_end, DT, 100, period=PERIOD)
            energies, vectors = np.linalg.eigh(h)
            phases = np.exp(-1j * np.outer(energies, traj.times))
            inversion, dist = observables(vectors @ (phases * (vectors.T @ psi0)[:, None]))
            assert np.max(np.abs(traj.photon_dist - dist.T)) < 1e-8
        else:
            traj = evolve_rwa(project_secular(params, 2, psi0, 1), t_end, DT, 100, period=PERIOD)
            inversion = inversion_fock(params, 2, traj.times)
        assert len(traj) == _RWA_BLOCK + 1
        assert np.max(np.abs(traj.inversion - inversion)) < 1e-8
        w, p = observables(traj.final_state)
        assert w == traj.inversion[-1]
        assert np.array_equal(p, traj.photon_dist[-1])

    @pytest.mark.parametrize("propagator", ["numeric", "rwa"])
    @pytest.mark.parametrize("off_grid", [0, 37], ids=["on-grid", "off-grid"])
    def test_one_phase_table_per_expansion(self, monkeypatch, propagator, off_grid):
        # B + 81 samples fill two blocks; the second block's step offsets are
        # a prefix of the first's, so one table of phases serves both.  37
        # steps past the last full interval, the final step falls off the
        # grid and takes its factor directly: both routes still follow their
        # references there, eigh propagation and the secular closed form
        params = two_photon_params()
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        n_steps = (_RWA_BLOCK + 80 - (off_grid > 0)) * 100 + off_grid
        h = build_full(params, space)
        if propagator == "numeric":
            projection, evolve = project_numeric(h, psi0), evolve_numeric
        else:
            projection, evolve = project_secular(params, 2, psi0, 1), evolve_rwa
        outer, tables = np.outer, []
        monkeypatch.setattr(np, "outer", lambda a, b: tables.append(len(b)) or outer(a, b))
        traj = evolve(projection, n_steps * DT, DT, 100, period=PERIOD)
        monkeypatch.undo()
        assert tables == [_RWA_BLOCK]
        assert len(traj) == _RWA_BLOCK + 81
        assert traj.times[-1] == n_steps * DT
        if propagator == "numeric":
            energies, vectors = np.linalg.eigh(h)
            phases = np.exp(-1j * np.outer(energies, traj.times))
            inversion, dist = observables(vectors @ (phases * (vectors.T @ psi0)[:, None]))
            assert np.max(np.abs(traj.photon_dist - dist.T)) < 1e-8
            final = traj.final_state
            assert traj.energy[-1] == pytest.approx((final.conj() @ h @ final).real, rel=1e-12)
        else:
            inversion = inversion_fock(params, 2, traj.times)
            assert traj.energy[-1] == pytest.approx(traj.energy[0], rel=1e-12)
        assert np.max(np.abs(traj.inversion - inversion)) < 1e-8
        w, p = observables(traj.final_state)
        assert w == traj.inversion[-1]
        assert np.array_equal(p, traj.photon_dist[-1])

    def test_truncation_warns_once_in_periods(self, monkeypatch):
        # the top-five rule of both routes, here on the secular one: a vacuum
        # Rabi cycle at omega = 2 moves population into |down, 1>, one of the
        # top five levels at n_max = 6, and the first sample over the
        # tolerance is named once, in periods 2 pi / omega = pi
        params = ModelParams(omega=2.0, omega0=2.0, lambda_eg=0.02)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, FockSpace(6))
        run = (project_secular(params, 1, psi0, 1), 60.0, 0.1, 3)
        monkeypatch.setattr(dynamics, "TRUNCATION_TOL", 2.0)
        quiet = evolve_rwa(*run, period=math.pi)
        assert quiet.truncation_ok
        top = np.sum(quiet.photon_dist[:, -5:], axis=1)
        target = 100
        assert int(np.argmax(top >= top[target])) == target
        monkeypatch.setattr(dynamics, "TRUNCATION_TOL", top[target])
        with pytest.warns(IntegratorWarning) as record:
            traj = evolve_rwa(*run, period=math.pi)
        assert not traj.truncation_ok
        messages = [str(w.message) for w in record if w.category is IntegratorWarning]
        assert messages == [
            f"top five photon levels reached {top[target]:.3e} population at "
            f"t = {traj.times[target] / math.pi:.6g} periods; raise n_max"
        ]
        assert "t = 9.5493 periods" in messages[0]

    def test_order_validated(self):
        params = two_photon_params()
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, FockSpace(10))
        with pytest.raises(ValueError, match="order"):
            evolve_rwa(project_secular(params, 2, psi0, 3), 10.0, 2.5, period=PERIOD)

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_displacement_per_ladder(self, monkeypatch, order):
        # one secular spectrum carries the basis and, at order 2, its level
        # shifts: two displacement builds per basis at either order, with the
        # unmixed states D(+lambda_g/omega)|N> and their ladder energies first
        omega0 = resonant_omega0(3, omega=1.0, lambda_g=0.1, lambda_e=0.1)
        params = ModelParams(omega=1.0, omega0=omega0, lambda_g=0.1, lambda_e=0.1, lambda_eg=0.02)
        space = FockSpace(40)
        calls = []

        def counted(beta, space):
            calls.append(beta)
            return displacement_matrix(beta, space)

        monkeypatch.setattr(rwa, "displacement_matrix", counted)
        s = rwa._secular_spectrum(params, 3, space.n_max, order)
        basis, energies = s.basis, s.energies
        assert len(calls) == 2
        shifts = np.zeros(3)
        if order == 2:
            c = rwa._transition_coupling(params, rwa._padded_size(params, 40))[0]
            shifts = rwa._shifts(params, 3, c)[0]
        d_down = displacement_matrix(params.lambda_g / params.omega, space)
        for col in range(3):
            vec = np.zeros(space.dim)
            vec[space.down] = d_down[:, col]
            assert np.array_equal(basis[:, col], vec)
            assert energies[col] == ladder_energies(params, col)[0] + shifts[col]

    def test_validity_warnings_fold_into_one(self, monkeypatch):
        # lambda_eg = 0.08 at the one-photon resonance: |V_N(1)| = 0.08 sqrt(N)
        # reaches 0.1 omega from N = 2, up to 0.24 at N = 9
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.08)
        space = FockSpace(10)

        def warned(psi0):
            # the projection warns; the expansion, outside the log, must not
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                projection = project_secular(params, 1, psi0, 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegratorWarning)  # n_max 10 is tight here
                evolve_rwa(projection, 10.0, 2.5, period=PERIOD)
            lines = [str(w.message) for w in log if issubclass(w.category, rwa.RWAValidityWarning)]
            return projection.strong_weight, lines

        # a vacuum holds nothing there, below COMPLETENESS_TOL: no warning
        vacuum = prepare_initial(InitialStateSpec("ground-coherent"), params, space)
        assert warned(vacuum) == (0.0, [])
        # a coherent field of mean 1 puts 1 - 2/e = 0.264 on N >= 2
        coherent = prepare_initial(
            InitialStateSpec("ground-coherent", mean_photons=1.0), params, space
        )
        weight, (line,) = warned(coherent)
        assert weight == pytest.approx(1.0 - 2.0 / math.e, abs=1e-3)
        assert line == (
            "8 manifolds N = 2..9 have |V_N(1)|/omega up to 0.24, not small, "
            f"and hold {weight:.3g} of the initial state; secular results there are unreliable"
        )
        # the warning fires from a weight of COMPLETENESS_TOL on
        monkeypatch.setattr(dynamics, "COMPLETENESS_TOL", np.nextafter(weight, 1.0))
        assert warned(coherent) == (weight, [])
        monkeypatch.setattr(dynamics, "COMPLETENESS_TOL", weight)
        assert warned(coherent) == (weight, [line])


class TestPruning:
    @pytest.mark.parametrize("propagator", ["numeric", "rwa"])
    def test_vacuum_start_within_bound_of_unpruned_run(self, monkeypatch, propagator):
        # a vacuum start leaves most eigenbasis columns empty; dropping the
        # weight w they hold moves no W or P value by more than 2 sqrt(w) + w
        params = two_photon_params()
        space = FockSpace(40)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        h = build_full(params, space)

        def run():
            if propagator == "numeric":
                return evolve_numeric(project_numeric(h, psi0), 300.0, DT, 500, period=PERIOD)
            return evolve_rwa(project_secular(params, 2, psi0, 2), 300.0, DT, 500, period=PERIOD)

        pruned = run()
        w = pruned.pruned_weight
        assert 0.0 < w <= space.dim * dynamics._PRUNE_TOL
        monkeypatch.setattr(dynamics, "_PRUNE_TOL", -1.0)
        full = run()
        assert full.pruned_weight == 0.0
        bound = 2.0 * math.sqrt(w) + w
        assert np.max(np.abs(pruned.inversion - full.inversion)) <= bound
        assert np.max(np.abs(pruned.photon_dist - full.photon_dist)) <= bound

    def test_numeric_vacuum_gets_exact_zeros_back(self, monkeypatch):
        # eigh leaves rounding residue of the empty eigenvectors on photon
        # levels a vacuum start never reaches; without those columns the
        # levels read exactly 0
        params = two_photon_params()
        space = FockSpace(200)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        h = build_full(params, space)
        pruned = evolve_numeric(project_numeric(h, psi0), 20.0, DT, sample_every=500, period=PERIOD)
        assert np.all(pruned.photon_dist[:, 100:] == 0.0)
        monkeypatch.setattr(dynamics, "_PRUNE_TOL", -1.0)
        full = evolve_numeric(project_numeric(h, psi0), 20.0, DT, sample_every=500, period=PERIOD)
        assert not np.any(np.all(full.photon_dist == 0.0, axis=0))

    def test_nan_coefficient_is_kept(self):
        # a NaN weight is never at or below the tolerance, so the NaN reaches
        # the norm check instead of vanishing with its column
        params = two_photon_params()
        space = FockSpace(10)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        psi0[3] = np.nan
        with pytest.raises(NormDriftError, match="is not finite at t = 0 periods"):
            evolve_numeric(
                project_numeric(build_full(params, space), psi0), 10.0, DT, sample_every=100,
                period=PERIOD,
            )


class TestInversionFock:
    def test_unit_at_time_zero(self):
        params = two_photon_params()
        assert inversion_fock(params, 2, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_weak_displacement_cosine(self):
        params = ModelParams(omega=1.0, omega0=resonant_omega0(1, omega=1.0, lambda_e=0.01),
                             lambda_e=0.01, lambda_eg=0.02)
        t = np.linspace(0.0, 400.0, 200)
        w = inversion_fock(params, 1, t)
        omega_r = 2.0 * abs(0.02) * 1.0  # leading manifold approximates the JC value
        # weight outside the leading term is ~1e-4
        assert np.max(np.abs(w - np.cos(omega_r * t))) < 5e-3

    def test_scalar_and_array_agree(self):
        params = two_photon_params()
        t = np.array([0.0, 10.0, 200.0])
        arr = inversion_fock(params, 2, t)
        for i, ti in enumerate(t):
            assert inversion_fock(params, 2, float(ti)) == pytest.approx(arr[i], abs=1e-14)


class TestInversionCoherent:
    def test_minus_one_at_time_zero(self):
        params = two_photon_params()
        assert inversion_coherent(params, 2, 20.0, 0.0) == pytest.approx(-1.0, abs=1e-10)

    def test_vacuum_field_stays_in_ground(self):
        params = two_photon_params()
        t = np.linspace(0.0, 500.0, 50)
        w = inversion_coherent(params, 1, 0.0, t)
        assert np.max(np.abs(w + 1.0)) < 1e-12

    def test_closed_forms_are_silent_at_strong_coupling(self):
        # |V_N(1)| = 0.15 sqrt(N) omega is past 0.1 omega on every manifold of
        # the series; the closed forms report nothing, the plan does
        params, n = resolve_params(parse_config(
            '{"n": 1, "lambda_eg": 0.15, "n_max": 12, "t_end": 1.0, "dt": 0.002, '
            '"sample_every": 50}'
        ))
        t = np.linspace(0.0, 20.0, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = inversion_coherent(params, n, 20.0, t)
            assert inversion_fock(params, n, t) == pytest.approx(np.cos(0.3 * t), abs=1e-12)
            assert rabi_frequency(params, 1, n) == pytest.approx(0.3, rel=1e-12)
        assert w[0] == pytest.approx(-1.0, abs=1e-10)

    def test_matches_rwa_propagator_with_dressing(self):
        # nonzero lambda_g exercises the coherent-weight argument
        params = ModelParams(
            omega=1.0,
            omega0=resonant_omega0(2, omega=1.0, lambda_g=0.13, lambda_e=0.1),
            lambda_g=0.13, lambda_e=0.1, lambda_eg=0.02,
        )
        space = FockSpace(60)
        psi0 = prepare_initial(InitialStateSpec("ground-coherent", mean_photons=4.0), params, space)
        traj = evolve_rwa(project_secular(params, 2, psi0, 1), 800.0, 800.0 / 99, period=PERIOD)
        closed = inversion_coherent(params, 2, 4.0, traj.times)
        assert np.max(np.abs(traj.inversion - closed)) < 1e-7


def test_readme_library_example_runs():
    # the README's "Library layout" example as written: both routes over
    # 300 periods, 3001 samples at n_max 40.  They agree to the secular
    # route's own error (0.016 in W, measured)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    namespace = {}
    exec(code, namespace)
    exact, secular = namespace["exact"], namespace["secular"]
    assert exact.times.size == secular.times.size == 3001
    assert (exact.inversion[0], secular.inversion[0]) == pytest.approx((1.0, 1.0))
    assert np.max(np.abs(exact.inversion - secular.inversion)) < 0.03
