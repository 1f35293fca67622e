"""Shared oracle helpers for the test suite.

The oracles deliberately avoid the package's own evaluation paths: a_dag + a
is a dense matrix, displaced states come from the matrix exponential of the
tridiagonal ladder generator, Laguerre values from exact rational
arithmetic, and V_N(n) past the float range and displacement elements from
their closed forms in mpmath arithmetic, so each check is a genuine dual
route.  :func:`traced_peak` measures a routine's own peak.
"""

import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from mprabi import dynamics, fockmath, runner, rwa


def ladder_matrix(n_max: int) -> np.ndarray:
    """Annihilation operator on a truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, n_max)), 1)


def position_operator(n_max: int) -> np.ndarray:
    """Quadrature matrix a_dag + a on the truncated Fock space, dense."""
    sq = np.sqrt(np.arange(1.0, n_max))
    return np.diag(sq, 1) + np.diag(sq, -1)


def full_dense(params, space) -> np.ndarray:
    """The full Hamiltonian assembled block by block from a dense a_dag + a."""
    n_max = space.n_max
    h = np.zeros((space.dim, space.dim))
    ho = params.omega * (np.arange(n_max) + 0.5)
    x = position_operator(n_max)
    dn, up = space.down, space.up
    h[dn, dn] = np.diag(ho - 0.5 * params.omega0) - params.lambda_g * x
    h[up, up] = np.diag(ho + 0.5 * params.omega0) + params.lambda_e * x
    h[dn, up] = h[up, dn] = params.lambda_eg * x
    return h


def displacement_expm(beta: float, n_max: int) -> np.ndarray:
    """exp(beta (a_dag - a)) from the truncated generator.

    Exact displacement matrix elements away from the truncation edge; callers
    must keep the indices of interest well below n_max.
    """
    a = ladder_matrix(n_max)
    return expm(beta * (a.T - a))


def laguerre_exact(n: int, l: int, x: Fraction) -> Fraction:
    """Generalized Laguerre polynomial in exact rational arithmetic."""
    if n == 0:
        return Fraction(1)
    prev = Fraction(1)
    cur = 1 + l - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + l - x) * cur - (k + l) * prev) / (k + 1)
    return cur


def coupling_mp(params, n_manifold: int, n: int, digits: int = 50) -> float:
    """V_N(n) from its closed form in mpmath arithmetic at ``digits`` digits,
    with exact factorials: no float product, logarithm or overflow."""
    with mpmath.workdps(digits):
        s = (mpmath.mpf(params.lambda_e) + params.lambda_g) / params.omega
        value = (
            (-1) ** n * mpmath.mpf(params.lambda_eg)
            * mpmath.sqrt(mpmath.factorial(n_manifold - n) / mpmath.factorial(n_manifold))
            * mpmath.exp(-s * s / 2) * mpmath.laguerre(n_manifold - n, n, s * s) * s ** (n - 1)
            * ((params.lambda_g - mpmath.mpf(params.lambda_e)) * s / params.omega - n)
        )
        return float(value)


def displacement_mp(m: int, k: int, beta: float, digits: int = 40) -> float:
    """<m|D(beta)|k> from the transition function's closed form in mpmath
    arithmetic at ``digits`` digits, with exact factorials."""
    if m < k:
        return (-1) ** (k - m) * displacement_mp(k, m, beta, digits)
    with mpmath.workdps(digits):
        b = mpmath.mpf(beta)
        value = (
            mpmath.sqrt(mpmath.factorial(k) / mpmath.factorial(m))
            * mpmath.exp(-b * b / 2) * b ** (m - k) * mpmath.laguerre(k, m - k, b * b)
        )
        return float(value)


def traced_peak(monkeypatch, call) -> int:
    """The tracemalloc peak of ``call()`` in bytes, with every reservation of
    the package (``fockmath._reserve``, wherever it is bound) left out, so
    that it is the peak of the work the reservations stand for.  Skips the
    test when tracemalloc is already tracing."""
    for module in (fockmath, rwa, dynamics, runner):
        monkeypatch.setattr(module, "_reserve", lambda *shape: None)
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
