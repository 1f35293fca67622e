"""Special-function kernels: Laguerre polynomials, transition functions,
displacement matrices and their columns, the displaced Fock states."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import displacement_expm, laguerre_exact
from mprabi.fockmath import (
    FockSpace,
    displacement_matrix,
    laguerre_poly,
    laguerre_transition,
)


class TestFockSpace:
    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            FockSpace(1)

    def test_index_layout_is_block_down_then_up(self):
        space = FockSpace(5)
        assert space.index("down", 0) == 0
        assert space.index("down", 4) == 4
        assert space.index("up", 0) == 5
        assert space.index("up", 3) == 8
        assert space.dim == 10

    def test_index_bounds(self):
        space = FockSpace(3)
        with pytest.raises(ValueError):
            space.index("down", 3)
        with pytest.raises(ValueError):
            space.index("sideways", 0)


class TestLaguerrePoly:
    def test_degree_zero_is_one(self):
        for l in (-3, 0, 2, 7):
            for x in (-5.0, 0.0, 3.25):
                assert laguerre_poly(0, l, x) == 1.0

    def test_degree_one_at_zero(self):
        assert laguerre_poly(1, 0, 0.0) == 1.0

    def test_frozen_rodrigues_value(self):
        # L_3^2(3/2) via the Rodrigues form evaluated exactly:
        # (1/3!) e^x x^-2 d^3/dx^3 (e^-x x^5) at x = 3/2 equals 1/16
        assert laguerre_poly(3, 2, 1.5) == pytest.approx(0.0625, abs=1e-14)

    def test_rodrigues_oracle_small_orders(self):
        import sympy

        x = sympy.Symbol("x")
        rng = np.random.default_rng(7)
        for n in (1, 2, 4, 6):
            for l in (0, 1, 3):
                expr = (
                    sympy.exp(x)
                    * x**-l
                    * sympy.diff(sympy.exp(-x) * x ** (n + l), x, n)
                    / math.factorial(n)
                )
                for _ in range(3):
                    xv = Fraction(int(rng.integers(-80, 80)), 16)
                    exact = float(sympy.nsimplify(expr.subs(x, sympy.Rational(xv))))
                    assert laguerre_poly(n, l, float(xv)) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_rational_recurrence_oracle(self):
        # n <= 30, |x| <= 20, superscripts down to -n; 1e-12 relative, with the
        # value scale regularized by the recurrence magnitude so draws that
        # land next to a polynomial zero stay meaningful
        rng = np.random.default_rng(11)
        for _ in range(250):
            n = int(rng.integers(0, 31))
            l = int(rng.integers(-n, 11))
            xv = Fraction(int(rng.integers(-2000, 2001)), 100)
            running = Fraction(1)
            scale = 1.0
            for degree in range(n + 1):
                running = laguerre_exact(degree, l, xv)
                scale = max(scale, abs(float(running)))
            exact = float(running)
            got = laguerre_poly(n, l, float(xv))
            assert abs(got - exact) < 1e-12 * max(abs(exact), scale)

    def test_domain_violation_negative_degree(self):
        with pytest.raises(ValueError):
            laguerre_poly(-1, 0, 1.0)


class TestLaguerreTransition:
    def test_zero_displacement_identity(self):
        assert laguerre_transition(0, 0, 0.0) == 1.0
        assert laguerre_transition(4, 4, 0.0) == 1.0
        assert laguerre_transition(3, 5, 0.0) == 0.0

    def test_frozen_one_zero_value(self):
        # I(1, 0, 1) = exp(-1/2)
        assert laguerre_transition(1, 0, 1.0) == pytest.approx(0.6065306597126334, abs=1e-15)

    def test_antisymmetry_is_exact(self):
        # both index orders share one code path, so the relation is exact
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = int(rng.integers(0, 40))
            sp = int(rng.integers(0, 40))
            alpha = float(rng.uniform(0.0, 6.0))
            sign = -1.0 if (s - sp) % 2 else 1.0
            assert laguerre_transition(s, sp, alpha) == sign * laguerre_transition(sp, s, alpha)

    def test_symmetry_routed_example(self):
        assert laguerre_transition(2, 5, 0.3) == -laguerre_transition(5, 2, 0.3)

    def test_unitarity_row_sums(self):
        # sum_M I(N, M, alpha)^2 = 1 once the truncation clears the tails
        for n_photon in (0, 5, 13, 20):
            for alpha in (0.3, 1.0, 2.7, 4.0):
                n_max = int(n_photon + 10 * alpha + 50)
                total = sum(
                    laguerre_transition(n_photon, m, alpha) ** 2 for m in range(n_max)
                )
                assert abs(total - 1.0) < 1e-10

    def test_large_index_log_space(self):
        # factorial ratios at index ~500 must not overflow
        val = laguerre_transition(500, 490, 2.0)
        assert math.isfinite(val)
        assert abs(val) < 1.0

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            laguerre_transition(1, 1, -0.5)
        with pytest.raises(ValueError):
            laguerre_transition(-1, 0, 0.5)


class TestDisplacementMatrix:
    def test_zero_displacement_identity(self):
        space = FockSpace(12)
        assert np.array_equal(displacement_matrix(0.0, space), np.eye(12, dtype=complex))

    def test_columns_unit_norm(self):
        space = FockSpace(80)
        mat = displacement_matrix(0.9, space)
        norms = np.linalg.norm(mat[:, :30], axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_inverse_displacement(self):
        # away from the truncation edge D(b) D(-b) acts as the identity
        space = FockSpace(70)
        prod = displacement_matrix(0.6, space) @ displacement_matrix(-0.6, space)
        block = prod[:25, :25]
        assert np.max(np.abs(block - np.eye(25))) < 1e-12

    @pytest.mark.parametrize("n_max", [2, 3, 24, 160])
    @pytest.mark.parametrize("beta", [1e-9, 0.1, 0.85, math.sqrt(20)])
    def test_negative_displacement_is_the_transpose(self, beta, n_max):
        # D(-b) = D(b)^T for real b, bit for bit, returned as its own array
        space = FockSpace(n_max)
        got = displacement_matrix(-beta, space)
        assert got.tobytes() == displacement_matrix(beta, space).T.tobytes()
        assert got.flags.c_contiguous

    def test_expm_oracle_random_cases(self):
        rng = np.random.default_rng(42)
        space = FockSpace(24)
        for _ in range(60):
            beta = float(rng.uniform(-1.5, 1.5))
            oracle = displacement_expm(beta, 100)[:24, :24]
            got = displacement_matrix(beta, space)
            assert np.max(np.abs(got - oracle)) < 1e-10

    def test_matches_scalar_transition_function(self):
        space = FockSpace(25)
        alpha = 0.49
        mat = displacement_matrix(0.7, space)
        for m in (0, 3, 11, 24):
            for k in (0, 2, 13, 24):
                assert mat[m, k].real == pytest.approx(
                    laguerre_transition(m, k, alpha), rel=1e-12, abs=1e-15
                )


class TestDisplacedFock:
    """Displaced Fock states D(beta)|k> are the columns of the matrix."""

    def test_vacuum_no_displacement(self):
        space = FockSpace(10)
        vec = displacement_matrix(0.0, space)[:, 0]
        expect = np.zeros(10)
        expect[0] = 1.0
        assert np.array_equal(vec.real, expect)

    def test_coherent_poisson_marginal(self):
        # displaced vacuum is a coherent state of mean beta^2, not beta
        space = FockSpace(50)
        beta = 1.3
        vec = displacement_matrix(beta, space)[:, 0]
        prob = np.abs(vec) ** 2
        mean = beta * beta
        poisson = np.array(
            [math.exp(-mean) * mean**k / math.factorial(k) for k in range(50)]
        )
        assert np.max(np.abs(prob - poisson)) < 1e-12
        assert float(np.arange(50) @ prob) == pytest.approx(mean, rel=1e-10)

    def test_orthonormal_family(self):
        space = FockSpace(90)
        vecs = displacement_matrix(0.85, space)[:, :12]
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(12))) < 1e-10


class TestDisplacementSweepProperties:
    """The one-sweep matrix against the expm oracle at random sizes."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        beta=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        n_max=st.integers(min_value=2, max_value=40),
    )
    def test_matches_expm_oracle(self, beta, n_max):
        got = displacement_matrix(beta, FockSpace(n_max))
        oracle = displacement_expm(beta, n_max + 60)[:n_max, :n_max]
        assert np.max(np.abs(got - oracle)) < 1e-10

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        beta=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        n_max=st.integers(min_value=2, max_value=40),
    )
    def test_columns_orthonormal_away_from_edge(self, beta, n_max):
        # column k keeps its weight inside the truncation while its
        # displacement tail, ~ 8|beta| sqrt(k+1) + 3 beta^2 + 16 levels above k
        # (a bound fitted with margin to the expm oracle), clears n_max
        n_clear = sum(
            k + 8.0 * abs(beta) * math.sqrt(k + 1.0) + 3.0 * beta * beta + 16.0 <= n_max
            for k in range(n_max)
        )
        cols = displacement_matrix(beta, FockSpace(n_max))[:, :n_clear]
        gram = cols.conj().T @ cols
        assert np.max(np.abs(gram - np.eye(n_clear)), initial=0.0) < 1e-10
