"""Propagators, observables, closed-form inversion curves."""

import math

import numpy as np
import pytest

from mprabi.fockmath import SPIN_DOWN, SPIN_UP, FockSpace, displacement_matrix
from mprabi.model import ModelParams, build_full
from mprabi.rwa import ResonanceSpec, low_manifold_states, rabi_frequency, resonant_omega0
from mprabi.dynamics import (
    InitialStateSpec,
    NormDriftError,
    ProjectionError,
    QuantumState,
    TruncationError,
    evolve_numeric,
    evolve_rwa,
    inversion_coherent,
    inversion_fock,
    observables,
    prepare_initial,
)

PERIOD = 2.0 * math.pi
DT = PERIOD / 1000.0


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
        assert np.array_equal(state.amplitudes, expect)

    def test_ground_coherent_zero_mean(self):
        params = two_photon_params()
        state = prepare_initial(
            InitialStateSpec("ground-coherent", mean_photons=0.0), params, FockSpace(8)
        )
        expect = np.zeros(16, dtype=complex)
        expect[0] = 1.0
        assert np.array_equal(state.amplitudes, expect)

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
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)

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

    def test_custom_vector_normalized(self):
        params = two_photon_params()
        space = FockSpace(4)
        raw = np.ones(8)
        state = prepare_initial(InitialStateSpec("custom-vector", vector=raw), params, space)
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-14)


class TestObservables:
    def test_pure_up_vacuum(self):
        state = QuantumState(np.array([0, 0, 0, 1, 0, 0], dtype=complex))
        w, p = observables(state)
        assert w == 1.0
        assert np.array_equal(p, np.array([1.0, 0.0, 0.0]))

    def test_balanced_superposition(self):
        amps = np.zeros(6, dtype=complex)
        amps[0] = amps[3] = 1 / math.sqrt(2)
        w, p = observables(QuantumState(amps))
        assert w == pytest.approx(0.0, abs=1e-15)
        assert p[0] == pytest.approx(1.0, abs=1e-15)

    def test_distribution_sums_to_norm(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=20) + 1j * rng.normal(size=20)
        w, p = observables(QuantumState(amps))
        assert float(np.sum(p)) == pytest.approx(float(np.sum(np.abs(amps) ** 2)), rel=1e-14)
        assert abs(w) <= float(np.sum(p)) + 1e-14


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
        psi0 = QuantumState(vec)
        traj = evolve_numeric(build_full(params, space), psi0, 30.0, DT, sample_every=200)
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
        assert traj.final_state.time == pytest.approx(traj.times[-1])

    def test_norm_drift_aborts_with_hint(self):
        # a top-of-ladder state under a huge step blows the norm immediately
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.01)
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock", n_photons=29), params, space)
        with pytest.raises(NormDriftError, match="dt"):
            evolve_numeric(build_full(params, space), psi0, 10.0, 1.0, sample_every=1)

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


class TestEvolveRwa:
    def test_ground_dressed_state_is_stationary(self):
        params = ModelParams(omega=1.0, omega0=2.01, lambda_g=0.15, lambda_e=0.1, lambda_eg=0.02)
        spec = ResonanceSpec.from_params(params, 2)
        space = FockSpace(30)
        vec, _ = low_manifold_states(params, spec, space)[0]
        psi0 = QuantumState(vec)
        traj = evolve_rwa(params, spec, psi0, np.linspace(0.0, 500.0, 60))
        assert np.max(np.abs(traj.inversion - traj.inversion[0])) < 1e-12
        assert np.max(np.abs(traj.photon_dist - traj.photon_dist[0])) < 1e-12

    def test_matches_closed_form_fock_inversion(self):
        params = two_photon_params()
        spec = ResonanceSpec.from_params(params, 2)
        space = FockSpace(30)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        grid = np.linspace(0.0, 3000.0, 100)
        traj = evolve_rwa(params, spec, psi0, grid)
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
            evolve_rwa(params, spec, psi0, np.linspace(0.0, 10.0, 5))

    def test_agrees_with_numeric_jc(self):
        # cross-propagator check in the plain single-photon regime
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        spec = ResonanceSpec.from_params(params, 1)
        space = FockSpace(10)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        traj_num = evolve_numeric(build_full(params, space), psi0, 320.0, DT, sample_every=100)
        traj_rwa = evolve_rwa(params, spec, psi0, traj_num.times)
        assert np.max(np.abs(traj_num.inversion - traj_rwa.inversion)) < 0.05


    def test_second_order_keeps_phase_with_exact_propagation(self):
        # over three two-photon Rabi periods the first-order secular curve
        # slips out of phase with eigh propagation; the second-order one stays
        params = two_photon_params()
        spec = ResonanceSpec.from_params(params, 2)
        space = FockSpace(20)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
        grid = np.linspace(0.0, 3.0 * 2.0 * math.pi / rabi_frequency(params, 2, 2), 400)
        evals, evecs = np.linalg.eigh(build_full(params, space).matrix)
        coeffs = evecs.conj().T @ psi0.amplitudes
        psi_t = np.abs(evecs @ (np.exp(-1j * np.outer(evals, grid)) * coeffs[:, None])) ** 2
        exact = np.sum(psi_t[space.block(SPIN_UP)], axis=0) - np.sum(
            psi_t[space.block(SPIN_DOWN)], axis=0
        )
        first = evolve_rwa(params, spec, psi0, grid).inversion
        second = evolve_rwa(params, spec, psi0, grid, order=2).inversion
        assert np.max(np.abs(first - exact)) > 0.5
        assert np.max(np.abs(second - exact)) < 0.05

    def test_order_validated(self):
        params = two_photon_params()
        spec = ResonanceSpec.from_params(params, 2)
        psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, FockSpace(10))
        with pytest.raises(ValueError, match="order"):
            evolve_rwa(params, spec, psi0, np.linspace(0.0, 10.0, 5), order=3)


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
        traj = evolve_rwa(params, spec, psi0, grid)
        closed = inversion_coherent(params, 2, 4.0, grid)
        assert np.max(np.abs(traj.inversion - closed)) < 1e-7
