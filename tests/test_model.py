"""Hamiltonian assembly: structure, decomposition, closed-form ladders."""

import numpy as np
import pytest

from mprabi.fockmath import SPIN_DOWN, SPIN_UP, FockSpace, displacement_matrix
from mprabi.model import (
    ModelParams,
    build_displaced_branch,
    build_full,
    displaced_energy,
    position_operator,
)

TWO_PHOTON = dict(omega=1.0, omega0=2.01, lambda_g=0.0, lambda_e=0.1)


class TestModelParams:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            ModelParams(omega=0.0, omega0=1.0)

    def test_rejects_negative_diagonal_couplings_by_default(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, omega0=1.0, lambda_g=-0.1)
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, omega0=1.0, lambda_e=-0.1)

    def test_signed_override(self):
        params = ModelParams(omega=1.0, omega0=1.0, lambda_g=-0.1, allow_signed=True)
        assert params.lambda_g == -0.1

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, omega0=float("nan"))


class TestBuildFull:
    def test_uncoupled_is_diagonal_ladder(self):
        params = ModelParams(omega=1.0, omega0=0.8)
        space = FockSpace(6)
        h = build_full(params, space)
        expected = np.zeros(12)
        expected[:6] = np.arange(6) + 0.5 - 0.4
        expected[6:] = np.arange(6) + 0.5 + 0.4
        assert np.array_equal(h, np.diag(expected).astype(complex))

    def test_hermitian_and_banded(self):
        params = ModelParams(omega=1.0, omega0=2.3, lambda_g=0.15, lambda_e=0.2, lambda_eg=0.05)
        space = FockSpace(20)
        h = build_full(params, space)
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        # photon-index bandwidth 1 within every spin block
        for rows in (space.block(SPIN_DOWN), space.block(SPIN_UP)):
            for cols in (space.block(SPIN_DOWN), space.block(SPIN_UP)):
                block = h[rows, cols]
                off = np.triu(np.abs(block), 2)
                assert np.max(off) == 0.0

    def test_ground_energy_uncoupled_branches(self):
        # lambda_eg = 0: lowest eigenvalue equals the down-branch closed form
        params = ModelParams(omega=1.0, omega0=2.01, lambda_g=0.23, lambda_e=0.1)
        space = FockSpace(80)
        evals = np.linalg.eigvalsh(build_full(params, space))
        e_g0 = -params.omega0 / 2 + params.omega / 2 - params.lambda_g**2 / params.omega
        assert abs(evals[0] - e_g0) < 1e-8

    def test_decomposition_is_entrywise_exact(self):
        params = ModelParams(omega=1.0, omega0=1.7, lambda_g=0.12, lambda_e=0.3, lambda_eg=0.04)
        space = FockSpace(15)
        h = build_full(params, space)
        dn = space.block(SPIN_DOWN)
        up = space.block(SPIN_UP)
        assert np.array_equal(h[dn, dn], build_displaced_branch(params, SPIN_DOWN, space))
        assert np.array_equal(h[up, up], build_displaced_branch(params, SPIN_UP, space))
        coupling = (params.lambda_eg * position_operator(space.n_max)).astype(complex)
        assert np.array_equal(h[dn, up], coupling)
        assert np.array_equal(h[up, dn], coupling)

    def test_spectrum_invariant_under_reordering(self):
        # interleave (photon-major) ordering must not move the spectrum
        params = ModelParams(omega=1.0, omega0=2.3, lambda_g=0.1, lambda_e=0.2, lambda_eg=0.07)
        space = FockSpace(18)
        h = build_full(params, space)
        perm = np.empty(space.dim, dtype=int)
        for spin in range(2):
            for n in range(space.n_max):
                perm[2 * n + spin] = spin * space.n_max + n
        h_perm = h[np.ix_(perm, perm)]
        ev = np.linalg.eigvalsh(h)
        ev_perm = np.linalg.eigvalsh(h_perm)
        assert np.max(np.abs(ev - ev_perm)) < 1e-10

    def test_matrix_is_readonly(self):
        params = ModelParams(omega=1.0, omega0=1.0)
        h = build_full(params, FockSpace(4))
        assert type(h) is np.ndarray and h.dtype == np.float64
        with pytest.raises(ValueError):
            h[0, 0] = 5.0


class TestDisplacedBranch:
    def test_uncoupled_up_branch_diagonal(self):
        params = ModelParams(omega=1.0, omega0=0.9)
        space = FockSpace(7)
        block = build_displaced_branch(params, SPIN_UP, space)
        assert np.array_equal(block, np.diag(np.arange(7) + 0.5 + 0.45).astype(complex))

    def test_eigenvalues_match_closed_form(self):
        params = ModelParams(omega=1.0, omega0=2.01, lambda_g=0.0, lambda_e=0.1)
        space = FockSpace(60)
        evals = np.linalg.eigvalsh(build_displaced_branch(params, SPIN_UP, space))
        for n in range(12):
            expect = displaced_energy(params, SPIN_UP, n)
            assert abs(evals[n] - expect) < 1e-9

    def test_eigenvectors_are_displacement_matrix_columns(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=0.3)
        space = FockSpace(70)
        _, vecs = np.linalg.eigh(build_displaced_branch(params, SPIN_DOWN, space))
        displaced = displacement_matrix(params.lambda_g / params.omega, space)
        for n in range(6):
            reference = displaced[:, n]
            overlap = abs(np.vdot(vecs[:, n], reference))
            assert overlap >= 1.0 - 1e-6

    def test_branch_label_checked(self):
        params = ModelParams(omega=1.0, omega0=1.0)
        with pytest.raises(ValueError):
            build_displaced_branch(params, "left", FockSpace(4))


class TestDisplacedEnergy:
    def test_uncoupled_up_ground(self):
        params = ModelParams(omega=1.0, omega0=2.0)
        assert displaced_energy(params, SPIN_UP, 0) == pytest.approx(1.5)

    def test_equidistant_ladder(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=0.2)
        for n in range(1, 8):
            gap = displaced_energy(params, SPIN_DOWN, n) - displaced_energy(params, SPIN_DOWN, n - 1)
            assert gap == pytest.approx(params.omega, abs=1e-14)

    def test_union_of_ladders_spectrum(self):
        # lambda_eg = 0 at n_max = 200: the 20 lowest exact eigenvalues are the
        # union of the two closed-form ladders to 1e-6 relative
        params = ModelParams(lambda_eg=0.0, **TWO_PHOTON)
        space = FockSpace(200)
        evals = np.linalg.eigvalsh(build_full(params, space))[:20]
        ladders = sorted(
            [displaced_energy(params, SPIN_DOWN, n) for n in range(30)]
            + [displaced_energy(params, SPIN_UP, n) for n in range(30)]
        )[:20]
        rel = np.abs(evals - np.array(ladders)) / np.abs(np.array(ladders))
        assert np.max(rel) < 1e-6
