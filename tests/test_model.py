"""Hamiltonian assembly: structure, decomposition, closed-form ladders."""

import re

import numpy as np
import pytest

from oracles import full_dense, position_operator, traced_peak
from mprabi.fockmath import FockSpace, displacement_matrix
from mprabi.model import ModelParams, build_full, ladder_energies

TWO_PHOTON = dict(omega=1.0, omega0=2.01, lambda_g=0.0, lambda_e=0.1)


@pytest.mark.parametrize("call, message", [
    (lambda: ladder_energies(ModelParams(**TWO_PHOTON), -1), "level index must be >= 0, got -1"),
    (lambda: ladder_energies(ModelParams(**TWO_PHOTON), np.array([0, -2])),
     "level index must be >= 0"),
], ids=["negative-level", "negative-level-in-array"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestModelParams:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            ModelParams(omega=0.0, omega0=1.0)

    def test_signed_couplings_map_literally(self):
        # either sign of either well is a valid model: -lambda_g and
        # +lambda_e multiply a_dag + a on the spin diagonal as given
        params = ModelParams(omega=1.0, omega0=1.0, lambda_g=-0.1, lambda_e=-0.2)
        h = build_full(params, FockSpace(4))
        assert (h[0, 1], h[4, 5]) == (0.1, -0.2)

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
        for rows in (space.down, space.up):
            for cols in (space.down, space.up):
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
        dn, up = space.down, space.up
        x = position_operator(space.n_max)
        ho = params.omega * (np.arange(space.n_max) + 0.5)
        assert np.array_equal(h[dn, dn], np.diag(ho - 0.5 * params.omega0) - params.lambda_g * x)
        assert np.array_equal(h[up, up], np.diag(ho + 0.5 * params.omega0) + params.lambda_e * x)
        coupling = (params.lambda_eg * x).astype(complex)
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

    @pytest.mark.parametrize("n_max", [200, 600])
    def test_peak_within_h_and_the_reserved_temporaries(self, n_max, monkeypatch):
        # build_full allocates H (4 n_max**2 float64) and writes its bands
        # through views, so it reserves no temporaries: beside H its traced
        # peak holds O(n_max), about 3 vectors of n_max float64
        params = ModelParams(omega=1.0, omega0=2.3, lambda_g=0.1, lambda_e=0.2, lambda_eg=0.07)
        space = FockSpace(n_max)
        peak = traced_peak(monkeypatch, lambda: build_full(params, space))
        matrix = 8 * n_max**2
        assert 4 * matrix < peak <= 4 * matrix + 8 * (8 * n_max)

    @pytest.mark.parametrize("n_max", [2, 3, 160, 200])
    @pytest.mark.parametrize("couplings", [
        (-0.23, 0.31, 0.05), (0.4, -0.12, 0.07), (0.0, 0.1, 0.02), (-0.15, -0.3, -0.04),
    ], ids=["g-negative", "e-negative", "shipped-n2", "all-negative"])
    def test_bands_are_the_dense_assembly_bit_for_bit(self, couplings, n_max):
        # the strided bands are the dense-X assembly's entries, bit for bit,
        # but where lambda_eg < 0: there the dense product lambda_eg * 0.0
        # puts -0.0 off the bands of the coupling blocks, where H keeps +0.0
        lambda_g, lambda_e, lambda_eg = couplings
        params = ModelParams(omega=1.3, omega0=1.7, lambda_g=lambda_g, lambda_e=lambda_e,
                             lambda_eg=lambda_eg)
        space = FockSpace(n_max)
        h, dense = build_full(params, space), full_dense(params, space)
        if lambda_eg < 0.0:
            assert np.array_equal(h, dense)
            dense += 0.0  # -0.0 + 0.0 is +0.0
        assert h.tobytes() == dense.tobytes()

    def test_matrix_is_readonly(self):
        params = ModelParams(omega=1.0, omega0=1.0)
        h = build_full(params, FockSpace(4))
        assert type(h) is np.ndarray and h.dtype == np.float64
        with pytest.raises(ValueError):
            h[0, 0] = 5.0


class TestDisplacedBranch:
    """Each diagonal block of H is its displaced ladder, whatever lambda_eg."""

    def test_uncoupled_up_branch_diagonal(self):
        params = ModelParams(omega=1.0, omega0=0.9, lambda_eg=0.3)
        space = FockSpace(7)
        block = build_full(params, space)[space.up, space.up]
        assert np.array_equal(block, np.diag(np.arange(7) + 0.5 + 0.45).astype(complex))

    def test_eigenvalues_match_closed_form(self):
        params = ModelParams(omega=1.0, omega0=2.01, lambda_g=0.0, lambda_e=0.1, lambda_eg=0.05)
        space = FockSpace(60)
        evals = np.linalg.eigvalsh(build_full(params, space)[space.up, space.up])
        for n in range(12):
            expect = ladder_energies(params, n)[1]
            assert abs(evals[n] - expect) < 1e-9

    def test_eigenvectors_are_displacement_matrix_columns(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=0.3, lambda_eg=0.05)
        space = FockSpace(70)
        _, vecs = np.linalg.eigh(build_full(params, space)[space.down, space.down])
        displaced = displacement_matrix(params.lambda_g / params.omega, space)
        for n in range(6):
            reference = displaced[:, n]
            overlap = abs(np.vdot(vecs[:, n], reference))
            assert overlap >= 1.0 - 1e-6


class TestDisplacedEnergy:
    def test_uncoupled_up_ground(self):
        params = ModelParams(omega=1.0, omega0=2.0)
        assert ladder_energies(params, 0) == pytest.approx((-0.5, 1.5))

    def test_equidistant_ladder(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=0.2)
        for ladder in ladder_energies(params, np.arange(8)):
            assert np.diff(ladder) == pytest.approx(np.full(7, params.omega), abs=1e-14)

    def test_union_of_ladders_spectrum(self):
        # lambda_eg = 0 at n_max = 200: the 20 lowest exact eigenvalues are the
        # union of the two closed-form ladders to 1e-6 relative
        params = ModelParams(lambda_eg=0.0, **TWO_PHOTON)
        space = FockSpace(200)
        evals = np.linalg.eigvalsh(build_full(params, space))[:20]
        ladders = sorted(np.concatenate(ladder_energies(params, np.arange(30))))[:20]
        rel = np.abs(evals - np.array(ladders)) / np.abs(np.array(ladders))
        assert np.max(rel) < 1e-6
