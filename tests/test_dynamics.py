"""Propagators, observables, closed-form inversion curves."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mprabi import dynamics, rwa
from mprabi.config import parse_config
from mprabi.fockmath import SPIN_DOWN, SPIN_UP, FockSpace, displacement_matrix
from mprabi.model import ModelParams, build_full, displaced_energy
from mprabi.runner import resolve_params
from mprabi.rwa import ResonanceSpec, rabi_frequency, resonant_omega0
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
    _rwa_basis,
    inversion_coherent,
    inversion_fock,
    observables,
    prepare_initial,
    project_secular,
)

PERIOD = 2.0 * math.pi
DT = PERIOD / 1000.0
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


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


def rwa_one_shot(params, spec, psi0, t_grid, order):
    """The secular expansion over the whole time grid at once, unblocked."""
    basis, energies, _ = _rwa_basis(params, spec, FockSpace(psi0.size // 2), order)
    coeffs = basis.conj().T @ psi0
    psi_t = basis @ (coeffs[:, None] * np.exp(-1j * np.outer(energies, t_grid)))
    inversion, dist = observables(psi_t)
    return inversion, dist.T, np.sum(dist.T, axis=1), psi_t[:, -1]


def two_photon_params():
    omega0 = resonant_omega0(2, omega=1.0, lambda_e=0.1)
    return ModelParams(omega=1.0, omega0=omega0, lambda_g=0.0, lambda_e=0.1, lambda_eg=0.02)


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
            traj = evolve_numeric(build_full(params, space), psi0, 30.0, DT, sample_every=300)
        else:
            spec = ResonanceSpec.from_params(params, 2)
            traj = evolve_rwa(
                params, spec, project_secular(params, spec, psi0, 1), np.linspace(0.0, 30.0, 11)
            )
        w, p = observables(traj.final_state)
        assert w == traj.inversion[-1]
        assert np.array_equal(p, traj.photon_dist[-1])


class TestEvolveNumeric:
    def test_stationary_excited_state_uncoupled(self):
        params = ModelParams(omega=1.0, omega0=2.0)
        space = FockSpace(6)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj = evolve_numeric(build_full(params, space), psi0, 20.0, DT, sample_every=100)
        assert np.max(np.abs(traj.inversion - 1.0)) < 1e-9

    def test_displaced_eigenstate_frozen_distribution(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_e=0.25)
        space = FockSpace(25)
        vec = np.zeros(50, dtype=complex)
        vec[space.block(SPIN_UP)] = displacement_matrix(-0.25, space)[:, 0]
        traj = evolve_numeric(build_full(params, space), vec, 30.0, DT, sample_every=200)
        drift = np.max(np.abs(traj.photon_dist - traj.photon_dist[0]))
        assert drift < 1e-8

    def test_energy_conservation(self):
        params = two_photon_params()
        space = FockSpace(16)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj = evolve_numeric(build_full(params, space), psi0, 200.0, DT, sample_every=500)
        rel = np.abs(traj.energy - traj.energy[0]) / abs(traj.energy[0])
        assert np.max(rel) < 1e-6

    def test_trajectory_invariants(self):
        params = two_photon_params()
        space = FockSpace(16)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj = evolve_numeric(build_full(params, space), psi0, 60.0, DT, sample_every=100)
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
            evolve_numeric(build_full(params, space), psi0, 10.0, 1.0, sample_every=1)

    def test_nan_norm_aborts(self):
        # the folded propagator overflows at this step long before the first
        # sample; the NaN norm must fail the check, not slip past it
        params = ModelParams(omega=1.0, omega0=2.0, lambda_e=0.1, lambda_eg=0.02)
        space = FockSpace(40)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NormDriftError, match="nan"):
                evolve_numeric(build_full(params, space), psi0, 4000.0, 1.0, sample_every=2000)

    # the state starts on the top level, so every run here is truncated
    @pytest.mark.filterwarnings("ignore::mprabi.dynamics.IntegratorWarning")
    def test_norm_drift_hint_names_a_passing_dt(self):
        # same run as above: the hinted step must carry it through, while
        # twice that step (one halving fewer) still drifts too far
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.01)
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock", n_photons=29), params, space)
        h = build_full(params, space)
        with pytest.raises(NormDriftError) as info:
            evolve_numeric(h, psi0, 10.0, 1.0, sample_every=1)
        hinted = float(re.search(r"= (\S+) keeps", str(info.value)).group(1))
        traj = evolve_numeric(h, psi0, 10.0, hinted, sample_every=1)
        assert np.max(np.abs(traj.norm - 1.0)) <= NORM_TOL
        with pytest.raises(NormDriftError):
            evolve_numeric(h, psi0, 10.0, 2.0 * hinted, sample_every=1)

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
        quiet = evolve_numeric(h, psi0, **run)
        top = np.sum(quiet.photon_dist[:, -5:], axis=1)
        tol = top[target]
        first = int(np.argmax(top >= tol))
        assert first % _RWA_BLOCK and (first > _RWA_BLOCK) == (target > _RWA_BLOCK)
        monkeypatch.setattr(dynamics, "TRUNCATION_TOL", tol)
        with pytest.warns(IntegratorWarning) as record:
            traj = evolve_numeric(h, psi0, **run)
        assert not traj.truncation_ok
        messages = [str(w.message) for w in record if w.category is IntegratorWarning]
        assert len(messages) == 1
        reported = float(re.search(r"at t = (\S+);", messages[0]).group(1))
        assert reported == float(f"{traj.times[first]:.6g}")

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
        traj = evolve_numeric(h, psi0, n_steps * dt, dt, sample_every=every)
        states = rk4_long_double(h, psi0, dt, n_steps, every)
        probs = np.abs(states) ** 2
        inversion = (np.sum(probs[:, 40:], axis=1) - np.sum(probs[:, :40], axis=1)).astype(float)
        assert np.max(np.abs(traj.inversion - inversion)) < 2e-12
        assert np.max(np.abs(traj.final_state - states[-1].astype(complex))) < 2e-12

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
        traj = evolve_numeric(h, psi0, n_steps * DT, DT, sample_every=sample_every)
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
        traj = evolve_numeric(build_full(params, space), psi0, 1.2 * t_half, DT, sample_every=20)
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
            evolve_numeric(h, psi0, 1.0, -0.1)
        with pytest.raises(ValueError):
            evolve_numeric(h, psi0, 1.0, 0.1, sample_every=0)

    def test_rejects_complex_hamiltonian(self):
        # the eigenbasis route diagonalizes the real part only
        params = two_photon_params()
        space = FockSpace(4)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        matrix = build_full(params, space).astype(complex)
        matrix[0, 1] += 1e-3j
        matrix[1, 0] -= 1e-3j
        with pytest.raises(ValueError, match="real"):
            evolve_numeric(matrix, psi0, 1.0, 0.1)


class TestEvolveRwa:
    def test_ground_dressed_state_is_stationary(self):
        params = ModelParams(omega=1.0, omega0=2.01, lambda_g=0.15, lambda_e=0.1, lambda_eg=0.02)
        spec = ResonanceSpec.from_params(params, 2)
        space = FockSpace(30)
        # the lowest unmixed state: |down, 0> displaced by lambda_g/omega (omega = 1)
        vec = np.zeros(space.dim)
        vec[space.block(SPIN_DOWN)] = displacement_matrix(params.lambda_g, space)[:, 0]
        traj = evolve_rwa(
            params, spec, project_secular(params, spec, vec, 1), np.linspace(0.0, 500.0, 60)
        )
        assert np.max(np.abs(traj.inversion - traj.inversion[0])) < 1e-12
        assert np.max(np.abs(traj.photon_dist - traj.photon_dist[0])) < 1e-12

    def test_matches_closed_form_fock_inversion(self):
        params = two_photon_params()
        spec = ResonanceSpec.from_params(params, 2)
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        grid = np.linspace(0.0, 3000.0, 100)
        traj = evolve_rwa(params, spec, project_secular(params, spec, psi0, 1), grid)
        closed = inversion_fock(params, 2, grid)
        assert np.max(np.abs(traj.inversion - closed)) < 1e-8

    def test_projection_completeness_failure(self):
        params = two_photon_params()
        spec = ResonanceSpec.from_params(params, 2)
        space = FockSpace(12)
        psi0 = prepare_initial(
            InitialStateSpec("excited-fock", n_photons=11), params, space
        )
        with pytest.raises(ProjectionError):
            evolve_rwa(
                params, spec, project_secular(params, spec, psi0, 1), np.linspace(0.0, 10.0, 5)
            )

    def test_agrees_with_numeric_jc(self):
        # cross-propagator check in the plain single-photon regime
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        spec = ResonanceSpec.from_params(params, 1)
        space = FockSpace(10)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj_num = evolve_numeric(build_full(params, space), psi0, 320.0, DT, sample_every=100)
        traj_rwa = evolve_rwa(params, spec, project_secular(params, spec, psi0, 1), traj_num.times)
        assert np.max(np.abs(traj_num.inversion - traj_rwa.inversion)) < 0.05


    def test_second_order_keeps_phase_with_exact_propagation(self):
        # over three two-photon Rabi periods the first-order secular curve
        # slips out of phase with eigh propagation; the second-order one stays
        params = two_photon_params()
        spec = ResonanceSpec.from_params(params, 2)
        space = FockSpace(20)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        grid = np.linspace(0.0, 3.0 * 2.0 * math.pi / rabi_frequency(params, 2, 2), 400)
        evals, evecs = np.linalg.eigh(build_full(params, space))
        coeffs = evecs.conj().T @ psi0
        psi_t = np.abs(evecs @ (np.exp(-1j * np.outer(evals, grid)) * coeffs[:, None])) ** 2
        exact = np.sum(psi_t[space.block(SPIN_UP)], axis=0) - np.sum(
            psi_t[space.block(SPIN_DOWN)], axis=0
        )
        first = evolve_rwa(params, spec, project_secular(params, spec, psi0, 1), grid).inversion
        second = evolve_rwa(params, spec, project_secular(params, spec, psi0, 2), grid).inversion
        assert np.max(np.abs(first - exact)) > 0.5
        assert np.max(np.abs(second - exact)) < 0.05

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize(
        "n_t",
        # B + 1 and 2B + 1 leave a lone last sample, which must not become a
        # one-column block: BLAS and numpy round a vector differently
        [1, _RWA_BLOCK, _RWA_BLOCK + 1, 2 * _RWA_BLOCK + 1, 3 * _RWA_BLOCK + 17],
    )
    def test_blocks_match_one_shot_expansion(self, n_t, order):
        params = two_photon_params()
        spec = ResonanceSpec.from_params(params, 2)
        psi0 = prepare_initial(
            InitialStateSpec("ground-coherent", mean_photons=4.0), params, FockSpace(30)
        )
        grid = np.linspace(0.0, 5000.0, n_t)
        traj = evolve_rwa(params, spec, project_secular(params, spec, psi0, order), grid)
        inversion, dist, norm, final = rwa_one_shot(params, spec, psi0, grid, order)
        assert np.array_equal(traj.inversion, inversion)
        assert np.array_equal(traj.photon_dist, dist)
        assert np.array_equal(traj.norm, norm)
        assert np.array_equal(traj.final_state, final)

    def test_order_validated(self):
        params = two_photon_params()
        spec = ResonanceSpec.from_params(params, 2)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, FockSpace(10))
        with pytest.raises(ValueError, match="order"):
            evolve_rwa(
                params, spec, project_secular(params, spec, psi0, 3), np.linspace(0.0, 10.0, 5)
            )

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_displacement_per_ladder(self, monkeypatch, order):
        # one secular spectrum carries the basis and, at order 2, its level
        # shifts: two displacement builds per basis at either order, with the
        # unmixed states D(+lambda_g/omega)|N> and their ladder energies first
        omega0 = resonant_omega0(3, omega=1.0, lambda_g=0.1, lambda_e=0.1)
        params = ModelParams(omega=1.0, omega0=omega0, lambda_g=0.1, lambda_e=0.1, lambda_eg=0.02)
        spec = ResonanceSpec.from_params(params, 3)
        space = FockSpace(40)
        calls = []

        def counted(beta, space):
            calls.append(beta)
            return displacement_matrix(beta, space)

        monkeypatch.setattr(dynamics, "displacement_matrix", counted)
        monkeypatch.setattr(rwa, "displacement_matrix", counted)
        basis, energies, _ = _rwa_basis(params, spec, space, order)
        assert len(calls) == 2
        shifts = rwa.level_shifts(params, 3, 40).down if order == 2 else np.zeros(3)
        d_down = displacement_matrix(params.lambda_g / params.omega, space)
        for col in range(3):
            vec = np.zeros(space.dim)
            vec[space.block(SPIN_DOWN)] = d_down[:, col]
            assert np.array_equal(basis[:, col], vec)
            assert energies[col] == displaced_energy(params, SPIN_DOWN, col) + shifts[col]

    def test_validity_warnings_fold_into_one(self):
        # lambda_eg = 0.08 at the one-photon resonance: |V_N(1)| = 0.08 sqrt(N)
        # reaches 0.1 omega from N = 2, up to 0.24 at N = 9
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.08)
        spec = ResonanceSpec.from_params(params, 1)
        space = FockSpace(10)

        def warned(psi0):
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                evolve_rwa(
                    params, spec, project_secular(params, spec, psi0, 1), np.linspace(0.0, 10.0, 5)
                )
            return [str(w.message) for w in log if issubclass(w.category, rwa.RWAValidityWarning)]

        vacuum = warned(prepare_initial(InitialStateSpec("ground-coherent"), params, space))
        assert vacuum == [
            "8 manifolds N = 2..9 have |V_N(1)|/omega up to 0.24, not small, "
            "and hold 0 of the initial state; secular results there are unreliable"
        ]
        # a coherent field of mean 1 puts 1 - 2/e = 0.264 on N >= 2
        (coherent,) = warned(
            prepare_initial(InitialStateSpec("ground-coherent", mean_photons=1.0), params, space)
        )
        held = float(re.search(r"hold (\S+) of", coherent).group(1))
        assert held == pytest.approx(1.0 - 2.0 / math.e, abs=1e-3)


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

    def test_matches_rwa_propagator_with_dressing(self):
        # nonzero lambda_g exercises the coherent-weight argument
        params = ModelParams(
            omega=1.0,
            omega0=resonant_omega0(2, omega=1.0, lambda_g=0.13, lambda_e=0.1),
            lambda_g=0.13, lambda_e=0.1, lambda_eg=0.02,
        )
        spec = ResonanceSpec.from_params(params, 2)
        space = FockSpace(60)
        psi0 = prepare_initial(InitialStateSpec("ground-coherent", mean_photons=4.0), params, space)
        grid = np.linspace(0.0, 800.0, 100)
        traj = evolve_rwa(params, spec, project_secular(params, spec, psi0, 1), grid)
        closed = inversion_coherent(params, 2, 4.0, grid)
        assert np.max(np.abs(traj.inversion - closed)) < 1e-7
