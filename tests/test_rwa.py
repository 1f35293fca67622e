"""Resonance bookkeeping, coupling matrix elements, dressed states."""

import itertools
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    coupling_mp, displacement_expm, ladder_matrix, position_operator, traced_peak,
)
from mprabi import dynamics, rwa
from mprabi.config import parse_config
from mprabi.dynamics import inversion_coherent, inversion_fock, project_secular
from mprabi.fockmath import FockSpace
from mprabi.model import ModelParams, build_full, ladder_energies
from mprabi.runner import resolve_params
from mprabi.rwa import (
    RWAValidityWarning,
    coupling_element,
    omega_eg,
    rabi_frequency,
    resonant_omega0,
    spectrum_records,
)
from mprabi.rwa import _padded_size, _secular_spectrum, _shifts, _transition_coupling
from mprabi.rwa import _SPECTRUM_MATRICES


def brute_coupling(params, n_manifold, n, n_big=None):
    """Independent matrix element through expm-built displaced states."""
    if n_big is None:
        n_big = n_manifold + 50
    g = params.lambda_g / params.omega
    e = params.lambda_e / params.omega
    vg = displacement_expm(g, n_big)[:, n_manifold]
    ve = displacement_expm(-e, n_big)[:, n_manifold - n]
    a = ladder_matrix(n_big)
    return params.lambda_eg * (vg @ (a.T + a) @ ve)


@pytest.mark.parametrize("call, message", [
    (lambda: coupling_element(ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02), 3, 0),
     "photon order must be >= 1, got 0"),
], ids=["order-0"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestOmegaEg:
    def test_no_couplings(self):
        assert omega_eg(ModelParams(omega=1.0, omega0=2.0)) == 2.0

    def test_equal_couplings_cancel(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=0.2, lambda_e=0.2)
        assert omega_eg(params) == pytest.approx(2.0, abs=1e-15)

    def test_direct_substitution(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=0.0, lambda_e=0.1)
        assert omega_eg(params) == pytest.approx(1.99, abs=1e-15)


class TestResonantOmega0:
    def test_bare_case(self):
        assert resonant_omega0(1, omega=1.0) == 1.0

    def test_algebraic_inversion(self):
        assert resonant_omega0(2, omega=1.0, lambda_e=0.1) == pytest.approx(2.01, abs=1e-15)

    def test_round_trip_detuning(self):
        for n in (1, 2, 5):
            omega0 = resonant_omega0(n, omega=1.3, lambda_g=0.21, lambda_e=0.08)
            params = ModelParams(omega=1.3, omega0=omega0, lambda_g=0.21, lambda_e=0.08)
            assert abs(omega_eg(params) - n * 1.3) < 1e-12

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            resonant_omega0(0, omega=1.0)


class TestResolvedResonance:
    # the photon order n is an integer that a config implies; the detuning is
    # read off the resolved parameters
    def test_from_config(self):
        params, n = resolve_params(parse_config('{"n": 2, "lambda_e": 0.1, "lambda_eg": 0.02}'))
        assert n == 2
        assert params.omega0 == pytest.approx(2.01, abs=1e-15)
        assert abs(omega_eg(params) - n * params.omega) < 1e-14

    def test_large_detuning_warns(self):
        # resolving the parameters warns about nothing; each secular result
        # made from them, the export and the projection, warns once
        config = parse_config('{"omega0": 2.5, "lambda_eg": 0.02}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, n = resolve_params(config)
        assert n == 2
        for secular in (
            lambda: spectrum_records(params, n, [2, 3]),
            lambda: project_secular(params, n, np.eye(40)[0], 1),
        ):
            with pytest.warns(RWAValidityWarning) as log:
                secular()
            assert [str(w.message) for w in log] == [
                "detuning |delta_2| = 0.5 is not small against omega = 1; "
                "secular results are unreliable"
            ]

    def test_rejects_bad_order(self):
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        with pytest.raises(ValueError, match="photon order must be >= 1, got 0"):
            spectrum_records(params, 0, [1])
        with pytest.raises(ValueError, match="photon order must be >= 1, got 0"):
            project_secular(params, 0, np.eye(40)[0], 1)


class TestCouplingElement:
    def test_selection_rule_no_diagonal_couplings(self):
        # only single-photon elements survive when both wells coincide
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        for n in range(2, 7):
            for n_manifold in range(n, 21):
                assert abs(coupling_element(params, n_manifold, n)) < 1e-12

    def test_single_photon_limit(self):
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        for n_manifold in range(1, 21):
            got = coupling_element(params, n_manifold, 1)
            assert got == pytest.approx(0.02 * math.sqrt(n_manifold), rel=1e-10)

    def test_brute_force_oracle_200_draws(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            params = ModelParams(
                omega=1.0,
                omega0=1.0,
                lambda_g=float(rng.uniform(0.0, 0.3)),
                lambda_e=float(rng.uniform(0.0, 0.3)),
                lambda_eg=float(rng.uniform(0.001, 0.1)),
            )
            n = int(rng.integers(1, 6))
            n_manifold = int(rng.integers(n, 31))
            closed = coupling_element(params, n_manifold, n)
            brute = brute_coupling(params, n_manifold, n)
            worst = max(worst, abs(closed - brute) / max(abs(brute), 1e-300))
        assert worst < 1e-9

    def test_signed_couplings_negative_sum(self):
        # net negative well separation flips odd orders; magnitude unchanged
        for lam_g, lam_e in ((-0.3, 0.1), (0.1, -0.25), (-0.05, 0.01)):
            params = ModelParams(
                omega=1.0, omega0=1.0, lambda_g=lam_g, lambda_e=lam_e,
                lambda_eg=0.02,
            )
            for n_manifold, n in ((3, 1), (5, 2), (7, 3)):
                closed = coupling_element(params, n_manifold, n)
                brute = brute_coupling(params, n_manifold, n)
                assert closed == pytest.approx(brute, rel=1e-9, abs=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        log_sum=st.floats(min_value=-9.0, max_value=-0.5),
        split=st.floats(min_value=0.0, max_value=1.0),
        negative=st.booleans(),
        lambda_eg=st.floats(min_value=0.001, max_value=0.1),
        n=st.integers(min_value=1, max_value=5),
        above=st.integers(min_value=0, max_value=30),
    )
    @example(log_sum=-7.0, split=0.3, negative=False, lambda_eg=0.02, n=2, above=5)
    @example(log_sum=-1.0, split=0.0, negative=True, lambda_eg=0.02, n=3, above=12)
    def test_closed_form_matches_band_element(self, log_sum, split, negative, lambda_eg, n, above):
        # V_N(n) is the band element C[N, N - n] of the transition coupling,
        # for large and tiny coupling sums of either sign
        total = (-1.0 if negative else 1.0) * 10.0**log_sum
        params = ModelParams(
            omega=1.0, omega0=1.0, lambda_g=split * total, lambda_e=(1.0 - split) * total,
            lambda_eg=lambda_eg,
        )
        n_manifold = n + above
        band = _transition_coupling(params, _padded_size(params, n_manifold))[0]
        closed = coupling_element(params, n_manifold, n)
        assert closed == pytest.approx(band[n_manifold, n_manifold - n], rel=1e-11, abs=1e-300)

    def test_continuity_across_zero_sum(self):
        # V_N(n) at s = (lambda_g + lambda_e)/omega -> 0 from either sign
        # tends to its value at s = 0, with an offset of O(s)
        lambda_eg, n_manifold = 0.02, 6
        base = dict(omega=1.0, omega0=2.0, lambda_eg=lambda_eg)
        for n in (1, 2, 3, 4):
            at_zero = coupling_element(
                ModelParams(lambda_g=0.1, lambda_e=-0.1, **base), n_manifold, n
            )
            for s in (1e-3, 1e-6, 1e-9, -1e-9, -1e-6, -1e-3):
                near = coupling_element(
                    ModelParams(lambda_g=0.1 + s, lambda_e=-0.1, **base), n_manifold, n
                )
                assert abs(near - at_zero) <= 2.0 * lambda_eg * n_manifold * abs(s)

    @pytest.mark.parametrize("lambda_g", [0.0, 1e-12, 0.1, 0.3])
    def test_selection_rule_at_zero_sum(self, lambda_g):
        # lambda_g = -lambda_e puts both wells on one centre (s = 0): only
        # the one-photon element survives, V_N(1) = lambda_eg sqrt(N); the
        # ulp bound allows the rounding of lambda_eg * N / sqrt(N)
        params = ModelParams(
            omega=1.0, omega0=1.0, lambda_g=lambda_g, lambda_e=-lambda_g, lambda_eg=0.02,
        )
        for n_manifold in range(1, 160):
            expect = 0.02 * math.sqrt(n_manifold)
            got = coupling_element(params, n_manifold, 1)
            assert abs(got - expect) <= 2 * math.ulp(expect)
            for n in range(2, min(n_manifold, 5) + 1):
                assert coupling_element(params, n_manifold, n) == 0.0

    @pytest.mark.parametrize("lambdas, n_manifold, n", [
        ((0.0, 0.0), 171, 171), ((0.0, 0.0), 10**5, 10**5), ((0.0, 0.0), 10**20, 10**20),
        ((6.5, 6.5), 171, 171), ((-1.5, -1.5), 172, 172), ((0.3, 0.2), 1000, 120),
        ((40.0, 40.0), 170, 170), ((-40.0, -40.0), 170, 165),
        # at s = 0, L_{N-n}^{(n)}(0) = C(N, n) overflows, and V_N(n) is 0
        ((0.0, 0.0), 10**5, 100), ((0.0, 0.0), 5000, 1000),
    ])
    def test_past_the_float_range(self, lambdas, n_manifold, n):
        # N!/(N - n)! or s**(n-1) beyond 1.8e308 is no error, and V_N(n)
        # keeps its value: 0 at s = 0 (the selection rule), the closed form
        # elsewhere (below 1e-300, where s = 80 leaves only exp(-s**2/2))
        lambda_g, lambda_e = lambdas
        params = ModelParams(omega=1.0, omega0=1.0, lambda_g=lambda_g, lambda_e=lambda_e,
                             lambda_eg=0.02)
        got = coupling_element(params, n_manifold, n)
        expect = 0.0 if lambda_g == lambda_e == 0.0 else coupling_mp(params, n_manifold, n)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("lam", [20.0, 33.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_overflow_times_underflow_is_formed_in_range(self, lam, n):
        # L_{600-n}^{(n)}(s**2) overflows where exp(-s**2/2) underflows; with
        # a binary exponent carried through both, their product is formed in
        # range (50-digit mpmath gives +9.2e-6 at lambda 20, n = 1, and
        # -1.33e-217 at lambda 33).  The bound is the degree recurrence's own
        # rounding over its ~600 steps: 5.6-12.5 eps on these Laguerre values
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=lam, lambda_e=lam, lambda_eg=0.02)
        expect = coupling_mp(params, 600, n)
        got = coupling_element(params, 600, n)
        assert expect != 0.0 and abs(got - expect) <= 32 * math.ulp(expect)
        assert rabi_frequency(params, 600, n) == 2.0 * abs(got)

    def test_closed_forms_on_overflow_times_underflow(self):
        # the inversion series at lambda 33 sum V_N(1) over N ~ 850 .. 1350,
        # each an overflowing Laguerre value times an underflowing Gaussian.
        # At t = 1000, the same Poisson-weighted series over coupling_mp's
        # V_N(1) (terms of weight >= 1e-13) gives W = 0.99993301094
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=33.0, lambda_e=33.0, lambda_eg=0.02)
        t = np.array([0.0, 1e3])
        fock, coherent = inversion_fock(params, 1, t), inversion_coherent(params, 1, 4.0, t)
        assert fock == pytest.approx([1.0, 0.99993301094], abs=1e-9)
        assert np.all(np.isfinite(coherent)) and np.all(np.abs(coherent) <= 1.0)
        assert coherent[0] == -1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("lam", [-1.5, -0.75, -0.3, 0.0, 0.1, 0.45, 1.0, 2.5, 7.0, 20.0, 33.0])
    def test_sweep_gives_coupling_element_bits(self, lam, n):
        # one Laguerre recurrence advanced a degree per manifold gives, bit
        # for bit, the V_N(n) of a recurrence run afresh to each N; lambda_e
        # = -lambda_g puts s = 0 (and the selection rule) in the grid
        top = 1400 if abs(lam) >= 20.0 else 300
        for lambda_e in (lam, -lam, 0.3):
            params = ModelParams(omega=1.0, omega0=2.0, lambda_g=lam, lambda_e=lambda_e,
                                 lambda_eg=0.02)
            stream = list(itertools.islice(rwa._couplings(params, n, n), top - n))
            for n_manifold in [*range(n, n + 40), *range(n + 40, top, 53)]:
                got, fresh = stream[n_manifold - n], coupling_element(params, n_manifold, n)
                assert struct.pack("<d", got) == struct.pack("<d", fresh), (lambda_e, n_manifold)

    @pytest.mark.parametrize("lam, n", [(0.1, 2), (-0.45, 3), (2.5, 1), (33.0, 1)])
    def test_series_sum_coupling_element_bits(self, lam, n):
        # the closed-form series read V_N(n) off one sweep; their curves are,
        # bit for bit, the sums over coupling_element term by term
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=lam, lambda_e=lam, lambda_eg=0.02)
        t = np.array([0.0, 0.37, 1.0, 10.0, 123.4])
        fock = np.zeros_like(t)
        for k, w in enumerate(dynamics._series_weights((lam / params.omega) ** 2)):
            fock = fock + w * np.cos(2.0 * abs(coupling_element(params, k + n, n)) * t)
        coherent = np.full_like(t, -1.0)
        rho = (math.sqrt(4.0) + lam / params.omega) ** 2
        for n_manifold, w in enumerate(dynamics._series_weights(rho)):
            if n_manifold >= n:
                omega_r = 2.0 * abs(coupling_element(params, n_manifold, n))
                coherent = coherent + 2.0 * w * np.sin(0.5 * omega_r * t) ** 2
        assert inversion_fock(params, n, t).tobytes() == fock.tobytes()
        assert inversion_coherent(params, n, 4.0, t).tobytes() == coherent.tobytes()

    def test_one_sweep_per_series(self, monkeypatch):
        # each series advances one recurrence a degree per term, where each
        # term reran it from degree 0 (0.3 s for inversion_fock at lambda 33)
        sweeps = []
        sweep = rwa._laguerre_sweep

        def counted(l, x):
            sweeps.append(0)
            for value in sweep(l, x):
                sweeps[-1] += 1
                yield value

        monkeypatch.setattr(rwa, "_laguerre_sweep", counted)
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=33.0, lambda_e=33.0, lambda_eg=0.02)
        inversion_fock(params, 1, [0.0, 1.0])
        inversion_coherent(params, 1, 4.0, [0.0, 1.0])
        terms = [len(list(dynamics._series_weights(33.0**2))),
                 len(list(dynamics._series_weights((2.0 + 33.0) ** 2))) - 1]
        assert sweeps == terms

    @pytest.mark.parametrize("lambda_g, lambda_e, lambda_eg",
                             [(0.0, 0.0, 1e308), (0.5, -0.25, 1.7e308)])
    def test_value_past_the_float_range_is_named(self, lambda_g, lambda_e, lambda_eg):
        # only a V_N(n) that itself leaves the float range raises: V_100(1)
        # is lambda_eg times 10 at s = 0 and times -1.065 at s = 0.25
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=lambda_g, lambda_e=lambda_e,
                             lambda_eg=lambda_eg)
        s = lambda_g + lambda_e
        named = re.escape(f"V_N(n) at N = 100, n = 1, s = {s:g} leaves the float range")
        for call in (coupling_element, rabi_frequency):
            with pytest.raises(ValueError, match=named):
                call(params, 100, 1)

    def test_domain_violation(self):
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        with pytest.raises(ValueError):
            coupling_element(params, 1, 2)

    def test_weak_coupling_monitor(self):
        # the closed form is silent; the spectrum export warns
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert coupling_element(params, 1, 1) == pytest.approx(0.5, rel=1e-12)
        with pytest.warns(RWAValidityWarning) as record:
            spectrum_records(params, 1, [1])
        assert [str(w.message) for w in record] == [
            "manifold N = 1 has |V_1(1)|/omega = 0.5, not small; "
            "secular results there are unreliable"
        ]


class TestRabiFrequency:
    def test_zero_transition_coupling(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=0.1, lambda_e=0.2)
        assert rabi_frequency(params, 4, 2) == 0.0

    def test_single_photon_value(self):
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        assert rabi_frequency(params, 1, 1) == pytest.approx(0.04, rel=1e-12)

    def test_two_photon_coupling_positive(self):
        params = ModelParams(omega=1.0, omega0=2.01, lambda_e=0.1, lambda_eg=0.02)
        assert rabi_frequency(params, 2, 2) > 0.0


def two_photon_params():
    omega0 = resonant_omega0(2, omega=1.0, lambda_e=0.1)
    return ModelParams(omega=1.0, omega0=omega0, lambda_g=0.0, lambda_e=0.1, lambda_eg=0.02)


def three_photon_params():
    omega0 = resonant_omega0(3, omega=1.0, lambda_g=0.1, lambda_e=0.1)
    return ModelParams(omega=1.0, omega0=omega0, lambda_g=0.1, lambda_e=0.1, lambda_eg=0.02)


def level_shifts(params, n, n_levels):
    """Second-order shifts (down, up) of the levels N < n_levels, on the
    ladder that :func:`_secular_spectrum` pads for n_top = n_levels."""
    down, up = _shifts(params, n, _transition_coupling(params, _padded_size(params, n_levels))[0])
    return down[:n_levels], up[: n_levels - n]


def manifold_record(params, n, n_manifold, order=1):
    """The spectrum record of manifold N alone."""
    (rec,) = spectrum_records(params, n, [n_manifold], order=order)["manifolds"]
    return rec


def exact_gap(params, n, n_manifold, n_max=120):
    """Splitting of the two eigenvalues of the full H nearest to manifold N's
    bare ladder energies."""
    evals = np.linalg.eigvalsh(build_full(params, FockSpace(n_max)))
    mid = 0.5 * (
        ladder_energies(params, n_manifold)[0]
        + ladder_energies(params, n_manifold - n)[1]
    )
    lo, hi = np.sort(evals[np.argsort(np.abs(evals - mid))[:2]])
    return hi - lo


#: (params, n, N) where the first-order gap misses the exact one by 2.6% to
#: 15.7% and the second-order gap holds to 1%
GAP_CASES = pytest.mark.parametrize(
    "params, n, n_manifold",
    [(two_photon_params(), 2, 2), (three_photon_params(), 3, 3), (two_photon_params(), 2, 20)],
    ids=["n2-N2", "n3-N3", "n2-N20"],
)


class TestDressedPair:
    # the pair of one manifold, read through its spectrum record: the alpha = +1
    # state (c_down, c_up) at E_plus and, by orthogonality, (c_up, -c_down) at
    # E_minus
    def test_exact_resonance_structure(self):
        params = two_photon_params()
        rec = manifold_record(params, 2, 2)
        v = coupling_element(params, 2, 2)
        e_g = -params.omega0 / 2 + 2.5
        assert rec["E_plus"] == pytest.approx(e_g + abs(v), abs=1e-12)
        assert rec["E_minus"] == pytest.approx(e_g - abs(v), abs=1e-12)
        assert abs(rec["c_down"]) == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert abs(rec["c_up"]) == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert rec["c_down"] >= 0.0
        # eigenvector property of the 2x2 secular block, for both states
        e_e = params.omega0 / 2 + 0.5 - 0.01
        h2 = np.array([[e_g, v], [v, e_e]])
        plus = np.array([rec["c_down"], rec["c_up"]])
        minus = np.array([rec["c_up"], -rec["c_down"]])
        for c, energy in ((plus, rec["E_plus"]), (minus, rec["E_minus"])):
            assert np.max(np.abs(h2 @ c - energy * c)) < 1e-12

    def test_decoupling_limit(self):
        # |delta| >> |V|: states collapse onto the bare ladder; with delta > 0
        # the up-branch level is the upper one
        params = ModelParams(omega=1.0, omega0=1.05, lambda_eg=1e-5)
        rec = manifold_record(params, 1, 3)
        assert abs(rec["c_up"]) > 1.0 - 1e-6
        assert rec["E_plus"] == pytest.approx(1.05 / 2 + 2.5, abs=1e-6)
        assert rec["E_minus"] == pytest.approx(-1.05 / 2 + 3.5, abs=1e-6)

    def test_energies_against_dense_diagonalization(self):
        # secular energies sit within O(lambda_eg^2 / omega) of the exact ones
        params = two_photon_params()
        evals = np.linalg.eigvalsh(build_full(params, FockSpace(60)))
        tol = 2.5 * params.lambda_eg**2 / params.omega
        for n_manifold in (2, 3, 4):
            rec = manifold_record(params, 2, n_manifold)
            for energy in (rec["E_plus"], rec["E_minus"]):
                nearest = evals[np.argmin(np.abs(evals - energy))]
                assert abs(nearest - energy) < tol

    def test_order_validated(self):
        params = two_photon_params()
        with pytest.raises(ValueError, match="order"):
            spectrum_records(params, 2, [2], order=3)

    def test_degenerate_manifold_flagged(self):
        # V = delta_eff = 0: no preferred mixing, the unmixed states stand
        params = ModelParams(omega=1.0, omega0=2.0)  # lambda_eg = 0, exact resonance
        rec = manifold_record(params, 2, 2)
        assert (rec["V"], rec["delta_eff"]) == (0.0, 0.0)
        assert (rec["c_down"], rec["c_up"]) == (0.0, 1.0)
        assert rec["E_plus"] == rec["E_minus"]


def _secular_cases():
    # (params, n): the shipped regimes, signed couplings, a tiny coupling
    # sum (where the paper's form of V_N(n) is 0 * inf), a detuned
    # selection-rule zero (V = 0, delta != 0), no transition coupling at
    # all (every manifold degenerate), and none with omega0 placed on the
    # resonance through lambda_e, whose block detunings round to 0 in some
    # manifolds and to a few ulps (-2.2e-16 at N = 2) in the others
    signed = dict(omega=1.0, lambda_g=-0.12, lambda_e=0.05, lambda_eg=0.02)
    return {
        "two-photon": (two_photon_params(), 2),
        "three-photon": (three_photon_params(), 3),
        "revival-n4": (
            ModelParams(
                omega=1.0, omega0=resonant_omega0(4, omega=1.0, lambda_g=0.2, lambda_e=0.15),
                lambda_g=0.2, lambda_e=0.15, lambda_eg=0.01,
            ),
            4,
        ),
        "signed": (
            ModelParams(omega0=resonant_omega0(2, omega=1.0, lambda_g=-0.12, lambda_e=0.05),
                        **signed),
            2,
        ),
        "no-dipoles": (ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02), 1),
        "sub-threshold": (
            ModelParams(omega=1.0, omega0=1.0, lambda_g=3e-7, lambda_e=2e-7, lambda_eg=0.02), 1
        ),
        "selection-rule": (ModelParams(omega=1.0, omega0=2.05, lambda_eg=0.02), 2),
        "no-transition": (ModelParams(omega=1.0, omega0=2.0, lambda_g=0.1, lambda_e=0.1), 2),
        "no-transition-rounded": (
            ModelParams(omega=1.0, omega0=resonant_omega0(2, omega=1.0, lambda_e=0.1), lambda_e=0.1),
            2,
        ),
    }


def _small_gap_cases():
    # (params, n): gaps far below the energies' ulp at first order, where a
    # pair built from differences of absolute energies loses its direction:
    # V_N(12) of 1e-16 omega at N = 12, and a transition coupling of 1e-30
    return {
        "n12": (
            ModelParams(
                omega=1.0, omega0=resonant_omega0(12, omega=1.0, lambda_g=0.05, lambda_e=0.05),
                lambda_g=0.05, lambda_e=0.05, lambda_eg=0.02,
            ),
            12,
        ),
        "tiny-transition": (
            ModelParams(
                omega=1.0, omega0=resonant_omega0(2, omega=1.0, lambda_e=0.1), lambda_e=0.1,
                lambda_eg=1e-30,
            ),
            2,
        ),
    }


class TestSecularSpectrum:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("case", list(_secular_cases()))
    def test_every_pair_diagonalizes_its_block(self, case, order):
        # every manifold of a 40-level basis against eigh of its own 2x2
        # block, built from the closed-form coupling and the public shifts
        params, n = _secular_cases()[case]
        got = _secular_spectrum(params, n, 40, order)
        shifts = level_shifts(params, n, 40) if order == 2 else None
        for row, n_manifold in enumerate(range(n, 40)):
            e_down = ladder_energies(params, n_manifold)[0]
            e_up = ladder_energies(params, n_manifold - n)[1]
            if shifts is not None:
                e_down += shifts[0][n_manifold]
                e_up += shifts[1][n_manifold - n]
            closed = coupling_element(params, n_manifold, n)
            assert got.v[row] == pytest.approx(closed, rel=1e-11, abs=1e-15)
            exact, vecs = np.linalg.eigh(np.array([[e_down, closed], [closed, e_up]]))
            scale = max(1.0, abs(e_down), abs(e_up))
            pair_energies = got.energies[n + 2 * row : n + 2 * row + 2]  # alpha = +1, -1
            assert np.max(np.abs(pair_energies[::-1] - exact)) < 4e-15 * scale
            pair = np.array([got.c_down[row], got.c_up[row]])  # columns: alpha = +1, -1
            assert np.all(pair[0] >= 0.0)
            # V = delta = 0: the block keeps the unmixed states, alpha = +1 up;
            # the rounded case holds both kinds of manifold
            degenerate = got.v[row] == 0.0 and got.delta[row] == 0.0
            assert degenerate == (case == "no-transition") or case == "no-transition-rounded"
            if degenerate:
                assert np.array_equal(pair, [[0.0, 1.0], [1.0, 0.0]])
            else:
                # eigh's vectors fixed to c_down >= 0, as the pairs are
                vecs = vecs[:, ::-1] * np.where(vecs[0, ::-1] < 0.0, -1.0, 1.0)
                gap = exact[1] - exact[0]
                assert np.max(np.abs(pair - vecs)) < 1e-15 + 1e-14 * scale / gap

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("case", [*_secular_cases(), *_small_gap_cases()])
    def test_pairs_are_orthonormal_however_small_the_gap(self, case, order):
        # each pair comes from its mixing angle, not from differences of
        # absolute energies: orthonormal to a few ulps, and an eigenbasis of
        # its centred block [[-delta/2, V], [V, delta/2]] to a few ulps of
        # max(|V|, |delta|), with no bound that grows as the gap shrinks
        params, n = {**_secular_cases(), **_small_gap_cases()}[case]
        s = _secular_spectrum(params, n, 40, order)
        eps = np.finfo(float).eps
        for v, delta, c_down, c_up in zip(s.v, s.delta, s.c_down, s.c_up):
            pair = np.array([c_down, c_up]).T  # rows: alpha = +1, -1
            assert np.max(np.abs(pair @ pair.T - np.eye(2))) <= 4 * eps
            block = np.array([[-0.5 * delta, v], [v, 0.5 * delta]])
            half_gap = np.hypot(0.5 * delta, v)
            for energy, c in zip((half_gap, -half_gap), pair):
                residual = np.max(np.abs(block @ c - energy * c))
                assert residual <= 4 * eps * max(abs(v), abs(delta))


    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("lambdas, n, n_top", [
        ((0.0, 0.1), 2, 250), ((0.1, 0.1), 3, 250), ((0.3, 0.5), 2, 250),
        # no displacement: the least padding, so the basis weighs most
        ((0.0, 0.0), 1, 250), ((0.0, 0.0), 1, 600),
    ], ids=["lambdas0-2", "lambdas1-3", "lambdas2-2", "undisplaced-250", "undisplaced-600"])
    def test_peak_within_the_probed_matrices(self, lambdas, n, n_top, order, monkeypatch):
        # _padded_size reserves _SPECTRUM_MATRICES (n_loc x n_loc) float64
        # matrices before every solve; the solver's traced peak, the basis it
        # returns included and the reservations left out, must fit in them
        lambda_g, lambda_e = lambdas
        omega0 = resonant_omega0(n, omega=1.0, lambda_g=lambda_g, lambda_e=lambda_e)
        params = ModelParams(omega=1.0, omega0=omega0, lambda_g=lambda_g, lambda_e=lambda_e,
                             lambda_eg=0.02)
        n_loc = _padded_size(params, n_top)
        assert n_top + 22 <= n_loc <= n_top + 130
        peak = traced_peak(monkeypatch, lambda: _secular_spectrum(params, n, n_top, order))
        matrix = 8 * n_loc**2
        assert matrix < peak <= _SPECTRUM_MATRICES * matrix


class TestSecularProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        log_sum=st.floats(min_value=-8.0, max_value=-0.7),
        split=st.floats(min_value=0.0, max_value=1.0),
        negative=st.booleans(),
        n=st.integers(min_value=1, max_value=4),
        above=st.integers(min_value=0, max_value=20),
    )
    # coupling sums s = 0 (10**-inf), +-1e-300 and +-1e-7
    @example(log_sum=-math.inf, split=0.5, negative=False, n=1, above=3)
    @example(log_sum=-math.inf, split=0.5, negative=False, n=2, above=3)
    @example(log_sum=-300.0, split=0.5, negative=False, n=1, above=3)
    @example(log_sum=-300.0, split=0.5, negative=True, n=2, above=3)
    @example(log_sum=-7.0, split=0.5, negative=False, n=1, above=3)
    @example(log_sum=-7.0, split=0.3, negative=True, n=2, above=3)
    def test_coupling_element_is_the_direct_overlap(self, log_sum, split, negative, n, above):
        # the closed form is the expm-built overlap for every coupling sum
        total = (-1.0 if negative else 1.0) * 10.0**log_sum
        params = ModelParams(
            omega=1.0, omega0=1.0, lambda_g=split * total, lambda_e=(1.0 - split) * total,
            lambda_eg=0.02,
        )
        got = coupling_element(params, n + above, n)
        assert got == pytest.approx(brute_coupling(params, n + above, n), rel=1e-9, abs=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=1, max_value=3),
        lambda_g=st.floats(min_value=0.05, max_value=0.3),
        lambda_e=st.floats(min_value=0.05, max_value=0.3),
        lambda_eg=st.floats(min_value=0.001, max_value=0.05),
        above=st.integers(min_value=0, max_value=30),
        order=st.sampled_from([1, 2]),
    )
    def test_dressed_pair_is_an_orthonormal_eigenbasis_of_its_block(
        self, n, lambda_g, lambda_e, lambda_eg, above, order
    ):
        omega0 = resonant_omega0(n, omega=1.0, lambda_g=lambda_g, lambda_e=lambda_e)
        params = ModelParams(
            omega=1.0, omega0=omega0, lambda_g=lambda_g, lambda_e=lambda_e, lambda_eg=lambda_eg
        )
        n_manifold = n + above
        e_down = ladder_energies(params, n_manifold)[0]
        e_up = ladder_energies(params, n_manifold - n)[1]
        if order == 2:
            down, up = level_shifts(params, n, n_manifold + 1)
            e_down += down[n_manifold]
            e_up += up[n_manifold - n]
        v = coupling_element(params, n_manifold, n)
        block = np.array([[e_down, v], [v, e_up]])
        # the top row of the spectrum solved up to N: the pair of N alone
        s = _secular_spectrum(params, n, n_manifold + 1, order)
        energies = s.energies[-2:]  # alpha = +1, -1
        vecs = np.array([s.c_down[-1], s.c_up[-1]]).T  # rows: alpha = +1, -1
        scale = max(1.0, abs(e_down), abs(e_up))
        assert energies[0] - energies[1] > 0.0
        # the pair is its mixing angle's rotation of the bare states: its
        # orthonormality does not depend on the gap
        assert np.max(np.abs(vecs @ vecs.T - np.eye(2))) <= 4 * np.finfo(float).eps
        for energy, c in zip(energies, vecs):
            residual = np.max(np.abs(block @ c - energy * c))
            assert residual < 4e-15 * scale

class TestLevelShifts:
    def test_bloch_siegert_closed_form(self):
        # no permanent dipoles, n = 1: only the counter-rotating neighbour
        # survives, dE_down(N) = -lambda_eg^2 (N+1) / (omega + omega0) and
        # dE_up(M) = +lambda_eg^2 M / (omega + omega0)
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        down, up = level_shifts(params, 1, 15)
        levels = np.arange(15)
        assert np.max(np.abs(down + 0.0004 * (levels + 1) / 2.0)) < 1e-15
        assert np.max(np.abs(up - 0.0004 * levels[:14] / 2.0)) < 1e-15

    def test_independent_of_level_count(self):
        params = three_photon_params()
        short = level_shifts(params, 3, 12)
        long = level_shifts(params, 3, 60)
        assert (short[0].size, short[1].size) == (12, 9)
        assert np.max(np.abs(short[0] - long[0][:12])) < 1e-15
        assert np.max(np.abs(short[1] - long[1][:9])) < 1e-15

    def test_ground_level_against_dense_diagonalization(self):
        # the unmixed N = 0 level is the ground state; its shift closes the
        # first-order error of lambda_eg^2 / omega size
        params = two_photon_params()
        exact = np.linalg.eigvalsh(build_full(params, FockSpace(60)))[0]
        bare = ladder_energies(params, 0)[0]
        shifted = bare + level_shifts(params, 2, 2)[0][0]
        assert abs(bare - exact) > 1e-4
        assert abs(shifted - exact) < 1e-6

    def test_rejects_resonance_of_another_order(self):
        # at the two-photon resonance the k - m = 2 pairs cross; asking for
        # three-photon shifts would divide by their vanishing gap
        with pytest.raises(ValueError, match="not the resonance"):
            level_shifts(two_photon_params(), 3, 10)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        omega=st.sampled_from([1.0, 0.7, 2.5]),
        omega0=st.floats(min_value=0.0, max_value=6.0),
        lambda_g=st.floats(min_value=-1.0, max_value=1.0),
        lambda_e=st.floats(min_value=-1.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=1, max_value=40),
    )
    def test_resonance_check_is_the_scan_of_every_pair(
        self, omega, omega0, lambda_g, lambda_e, n, extra
    ):
        # the O(1) check fires exactly where some pair (k, m) with k - m != n
        # of the n_loc-level ladders lies within the resonance window, but
        # for a gap within rounding of the window's edge (omega0 = 0.1 at
        # n = 1 gives the scan -0.1 and the check 0.09999999999999998)
        params = ModelParams(omega=omega, omega0=omega0 * omega, lambda_g=lambda_g,
                             lambda_e=lambda_e, lambda_eg=0.02)
        n_loc = n + extra
        e_down, e_up = ladder_energies(params, np.arange(n_loc))
        gap = e_down[:, None] - e_up[None, :]
        np.fill_diagonal(gap[n:], np.inf)
        window = rwa.RESONANCE_WINDOW * omega
        assume(abs(np.min(np.abs(gap)) - window) > 1e-12)
        scan = bool(np.any(np.abs(gap) < window))
        try:
            rwa._check_resonance(params, n, n_loc)
        except ValueError as exc:
            assert scan and f"n = {n} is not the resonance of this model" in str(exc)
        else:
            assert not scan

    def test_vanish_without_transition_coupling(self):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_g=0.1, lambda_e=0.2)
        down, up = level_shifts(params, 2, 10)
        assert not np.any(down) and not np.any(up)

    @pytest.mark.parametrize("params, n", [
        (ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02), 1),
        (two_photon_params(), 2), (three_photon_params(), 3),
    ], ids=["bloch-siegert", "two-photon", "three-photon"])
    def test_are_the_masked_sums_bit_for_bit(self, params, n):
        # an infinite gap on the partner diagonal weighs exactly what the
        # mask of the partners k - m = n did
        c = _transition_coupling(params, _padded_size(params, 40))[0]
        levels = np.arange(c.shape[0])
        e_down, e_up = ladder_energies(params, levels)
        partner = levels[:, None] - levels[None, :] == n
        gap = np.where(partner, 1.0, e_down[:, None] - e_up[None, :])
        weight = np.where(partner, 0.0, c * c) / gap
        down, up = _shifts(params, n, c)
        assert down.tobytes() == np.sum(weight, axis=1).tobytes()
        assert up.tobytes() == (-np.sum(weight, axis=0)).tobytes()


class TestTransitionCoupling:
    @pytest.mark.parametrize("lambdas, n_loc", [((0.1, 0.1), 203), ((0.5, 0.5), 591)])
    def test_matches_the_dense_product(self, lambdas, n_loc):
        # a_dag + a applied as its two bands, then one product: C is
        # lambda_eg D_g^T (X D_e) with a dense X up to rounding.  The other
        # association, (D_g^T X) D_e, is itself up to 9 ulp of max |C| away
        lambda_g, lambda_e = lambdas
        params = ModelParams(omega=1.0, omega0=3.0, lambda_g=lambda_g, lambda_e=lambda_e,
                             lambda_eg=0.02)
        c, d_down, d_up = _transition_coupling(params, n_loc)
        dense = params.lambda_eg * (d_down.T @ (position_operator(n_loc) @ d_up))
        assert np.max(np.abs(c - dense)) <= 4 * np.spacing(np.max(np.abs(dense)))


def pair_errors(n, n_manifold, lambda_g, lambda_e, lambda_eg, order, n_max):
    """E_sec - E_exact of manifold N's dressed pair (alpha = +1, -1), each
    secular column matched to the eigh eigenvector of largest overlap."""
    omega0 = resonant_omega0(n, omega=1.0, lambda_g=lambda_g, lambda_e=lambda_e)
    params = ModelParams(omega=1.0, omega0=omega0, lambda_g=lambda_g, lambda_e=lambda_e,
                         lambda_eg=lambda_eg)
    s = _secular_spectrum(params, n, n_max, order)
    energies, vectors = np.linalg.eigh(build_full(params, FockSpace(n_max)))
    pair = [n + 2 * (n_manifold - n), n + 2 * (n_manifold - n) + 1]
    match = np.argmax(np.abs(vectors.T @ s.basis[:, pair]), axis=0)
    return s.energies[pair] - energies[match]


class TestOrderScaling:
    # Order-k secular energies err as lambda_eg**(k + 1), so the log-log slope
    # of a pair's max |E_sec - E_exact| over lambda_eg = 0.01, 0.005, 0.0025
    # is 2 at order 1 and 3 at order 2; a wrong or missing shift term leaves an
    # O(lambda_eg**2) error at order 2, slope 2, at any coupling.  Measured
    # slopes: 2.05-2.14 at order 1 (N = n), 2.97-3.05 at order 2, so both are
    # held to 0.2.  At N = 60 the order-1 error halves 6.2-6.7 times per
    # halving (slope 2.5-2.6), as higher orders still weigh there, so order 1
    # is asserted at low N only.  The smallest order-2 error, 5.9e-9 at n = 2
    # and lambda_eg 0.0025, is far above eigh's (~1e-13 on these H of norm
    # ~60); the test holds every error above 1e-10.
    @pytest.mark.parametrize("n, n_manifold, lambdas, n_max, order", [
        (2, 2, (0.0, 0.1), 60, 1), (3, 3, (0.1, 0.1), 60, 1),
        (2, 2, (0.0, 0.1), 60, 2), (3, 3, (0.1, 0.1), 60, 2), (4, 60, (0.1, 0.1), 160, 2),
    ], ids=["n2-N2-order1", "n3-N3-order1", "n2-N2-order2", "n3-N3-order2", "n4-N60-order2"])
    def test_error_slope_in_lambda_eg(self, n, n_manifold, lambdas, n_max, order):
        errors = [pair_errors(n, n_manifold, *lambdas, lambda_eg, order, n_max)
                  for lambda_eg in (0.01, 0.005, 0.0025)]
        sizes = [np.max(np.abs(dE)) for dE in errors]
        assert min(sizes) > 1e-10
        slopes = np.log2(np.array(sizes[:-1]) / sizes[1:])
        assert np.all(np.abs(slopes - (order + 1)) <= 0.2)
        if order == 2:
            # the pair's centre is right, its splitting is not: the two
            # errors have opposite signs (|sum| / |difference| <= 0.068 measured)
            for d_plus, d_minus in errors:
                assert abs(d_plus + d_minus) <= 0.1 * abs(d_plus - d_minus)


def unmixed_states(params, n, space):
    """(vector, energy) of the secular basis columns that are not dressed
    pairs; they come first."""
    s = _secular_spectrum(params, n, space.n_max, 1)
    n_low = s.basis.shape[1] - 2 * (space.n_max - n)
    return [(s.basis[:, k], s.energies[k]) for k in range(n_low)]


class TestLowManifoldStates:
    def test_single_state_for_one_photon(self):
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.01)
        states = unmixed_states(params, 1, FockSpace(20))
        assert len(states) == 1
        vec, energy = states[0]
        assert energy == pytest.approx(-0.5 + 0.5, abs=1e-15)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_equidistant_low_ladder(self):
        params = ModelParams(omega=1.0, omega0=3.0, lambda_g=0.2, lambda_e=0.1, lambda_eg=0.01)
        states = unmixed_states(params, 3, FockSpace(40))
        assert len(states) == 3
        energies = [e for _, e in states]
        assert np.allclose(np.diff(energies), 1.0, atol=1e-13)

    def test_ground_state_coherent_marginal(self):
        # with lambda_g != 0 the ground state's field is coherent
        params = ModelParams(omega=1.0, omega0=1.0, lambda_g=0.4, lambda_eg=0.01)
        space = FockSpace(40)
        vec, _ = unmixed_states(params, 1, space)[0]
        marginal = np.abs(vec[:40]) ** 2 + np.abs(vec[40:]) ** 2
        mean = 0.16
        poisson = np.array([math.exp(-mean) * mean**k / math.factorial(k) for k in range(40)])
        assert np.max(np.abs(marginal - poisson)) < 1e-12


class TestSpectrumRecords:
    def test_record_shape_and_splitting(self):
        params = two_photon_params()
        payload = spectrum_records(params, 2, range(2, 6))
        assert len(payload["low_manifolds"]) == 2
        assert len(payload["manifolds"]) == 4
        for rec in payload["manifolds"]:
            assert set(rec) == {
                "n_manifold", "n", "delta_n", "delta_eff", "V", "Omega",
                "E_plus", "E_minus", "c_down", "c_up",
            }
            assert rec["E_plus"] - rec["E_minus"] == pytest.approx(rec["Omega"], abs=1e-12)

    def test_jc_limit_sqrt_scaling(self):
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        payload = spectrum_records(params, 1, range(1, 9))
        for rec in payload["manifolds"]:
            assert rec["Omega"] == pytest.approx(
                0.04 * math.sqrt(rec["n_manifold"]), rel=1e-10
            )

    def test_empty_range(self):
        params = two_photon_params()
        payload = spectrum_records(params, 2, [])
        assert payload["manifolds"] == []
        assert len(payload["low_manifolds"]) == 2

    def test_manifold_below_order_rejected(self):
        params = two_photon_params()
        with pytest.raises(ValueError, match="manifolds must be >= n = 2"):
            spectrum_records(params, 2, [3, 1])

    @GAP_CASES
    def test_second_order_gap_against_dense_diagonalization(self, params, n, n_manifold):
        exact = exact_gap(params, n, n_manifold)
        errors = {}
        for order in (1, 2):
            payload = spectrum_records(params, n, [n_manifold], order=order)
            assert payload["order"] == order
            (rec,) = payload["manifolds"]
            errors[order] = abs(rec["E_plus"] - rec["E_minus"] - exact) / exact
        assert errors[2] < 0.01
        assert errors[1] > 0.02

    @GAP_CASES
    @pytest.mark.parametrize("order", [1, 2])
    def test_gap_follows_delta_eff(self, params, n, n_manifold, order):
        # the record alone explains its gap: at order 2 the level shifts enter
        # through delta_eff, at order 1 it is the resonance's delta_n
        payload = spectrum_records(params, n, range(n, n_manifold + 1), order=order)
        delta_n = omega_eg(params) - n * params.omega
        for rec in payload["manifolds"]:
            gap = math.hypot(rec["delta_eff"], 2.0 * rec["V"])
            assert rec["E_plus"] - rec["E_minus"] == pytest.approx(gap, abs=1e-12)
            if order == 1:
                assert rec["delta_eff"] == pytest.approx(delta_n, abs=1e-12)
        if order == 2:
            # the shifts are visible: the gap is not 2|V| at the shipped couplings
            (rec, *_) = payload["manifolds"]
            assert abs(rec["delta_eff"]) > 1e-4

    def test_warns_once_about_the_returned_manifolds(self):
        # |V_N(1)| = 0.08 sqrt(N) passes 0.1 omega from N = 2 on
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.08)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectrum_records(params, 1, [1])
        with pytest.warns(RWAValidityWarning) as record:
            spectrum_records(params, 1, [1, 5, 3])
        assert [str(w.message) for w in record] == [
            "2 manifolds N = 3..5 have |V_N(1)|/omega up to 0.179, not small; "
            "secular results there are unreliable"
        ]
