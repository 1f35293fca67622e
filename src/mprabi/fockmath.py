"""Displaced-oscillator special functions.

Generalized Laguerre polynomials and the Fock matrix of the displacement
operator on a truncated boson space.  Displaced Fock states are columns of
:func:`displacement_matrix`; no other routine computes displacement elements.

Conventions
-----------
The displacement operator is ``D(beta) = exp(beta (a_dag - a))`` with real
``beta``.  All its Fock matrix elements are real and are expressed through the
transition function

    I(s, s', alpha) = sqrt(s'!/s!) exp(-alpha/2) alpha^((s-s')/2)
                      * L_{s'}^{s-s'}(alpha)
                    = (-1)^(s-s') I(s', s, alpha),

with ``alpha = beta**2``, so that ``<m|D(beta)|k> = I(m, k, beta**2)`` for
``beta >= 0``; a negative displacement is the transpose, ``D(-beta) = D(beta)^T``
(``D(beta)`` is real and unitary).

A displaced Fock state ``D(beta)|k>`` is column ``k`` of
``displacement_matrix(beta, space)``.  The ``k = 0`` column is a coherent
state whose photon-number distribution is Poisson with mean ``beta**2`` (the
mean is the displacement squared, not the displacement itself).

All functions here are pure and hold no shared mutable state, so they are safe
to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPIN_DOWN = "down"
SPIN_UP = "up"
_SPIN_INDEX = {SPIN_DOWN: 0, SPIN_UP: 1}


@dataclass(frozen=True)
class FockSpace:
    """Truncated boson space keeping photon numbers 0 .. n_max-1.

    The two-level product basis uses two contiguous spin blocks:
    state (spin, N) sits at integer index ``spin_index * n_max + N`` with
    spin "down" -> 0 and "up" -> 1.  This layout is fixed; code that needs a
    different ordering must permute explicitly.
    """

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 2:
            raise ValueError(f"n_max must be an integer >= 2, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        """Dimension of the spin (x) boson product space."""
        return 2 * self.n_max

    def index(self, spin: str, n: int) -> int:
        """Product-basis index of state (spin, photon number n)."""
        if spin not in _SPIN_INDEX:
            raise ValueError(f"spin must be '{SPIN_DOWN}' or '{SPIN_UP}', got {spin!r}")
        if not 0 <= n < self.n_max:
            raise ValueError(f"photon index {n} outside truncation 0..{self.n_max - 1}")
        return _SPIN_INDEX[spin] * self.n_max + n

    def block(self, spin: str) -> slice:
        """Slice of the product basis belonging to one spin projection."""
        if spin not in _SPIN_INDEX:
            raise ValueError(f"spin must be '{SPIN_DOWN}' or '{SPIN_UP}', got {spin!r}")
        i = _SPIN_INDEX[spin]
        return slice(i * self.n_max, (i + 1) * self.n_max)


def laguerre_poly(n: int, l: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^l(x).

    Evaluated with the three-term recurrence in the degree, which is
    numerically stable and O(n); the Rodrigues derivative form is not used.
    The superscript may be any integer (the recurrence stays valid below -n).
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + l - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + l - x) * cur - (k + l) * prev) / (k + 1)
    return cur


def laguerre_transition(s: int, s_prime: int, alpha: float) -> float:
    """Transition function I(s, s', alpha) between displaced Fock ladders.

    This is the overlap amplitude <s|D(sqrt(alpha))|s'> for a relative
    displacement sqrt(alpha) >= 0.  For s < s' the call is routed through the
    antisymmetry relation I(s, s') = (-1)^(s-s') I(s', s) so that both index
    orders share one code path and the relation holds exactly as computed.
    Factorial ratios go through lgamma, keeping indices up to several hundred
    free of overflow.
    """
    if s < 0 or s_prime < 0:
        raise ValueError(f"indices must be >= 0, got ({s}, {s_prime})")
    if not (alpha >= 0.0):
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    s, s_prime = int(s), int(s_prime)
    if s < s_prime:
        sign = -1.0 if (s_prime - s) % 2 else 1.0
        return sign * laguerre_transition(s_prime, s, alpha)
    if alpha == 0.0:
        return 1.0 if s == s_prime else 0.0
    log_pref = (
        0.5 * (math.lgamma(s_prime + 1) - math.lgamma(s + 1))
        + 0.5 * (s - s_prime) * math.log(alpha)
        - 0.5 * alpha
    )
    return math.exp(log_pref) * laguerre_poly(s_prime, s - s_prime, alpha)


def displacement_matrix(beta: float, space: FockSpace) -> np.ndarray:
    """Matrix of D(beta) on the truncated Fock space; column k is D(beta)|k>.

    Entries are the exact infinite-space elements <m|D(beta)|k> evaluated
    through the transition function and windowed to n_max x n_max, so columns
    lose norm only through truncation: the matrix is unitary up to truncation
    error for ``beta**2`` well below ``n_max``.

    One sweep of the degree recurrence of :func:`laguerre_poly`, run over the
    vector of superscripts l = 0 .. n_max-1, yields every L_k^l(beta**2) the
    lower triangle m >= k needs; the upper triangle follows by antisymmetry,
    and a negative beta by D(-beta) = D(beta)^T (returned C-contiguous).
    """
    if not math.isfinite(beta):
        raise ValueError(f"displacement must be finite, got {beta}")
    if beta < 0.0:
        return np.ascontiguousarray(displacement_matrix(-beta, space).T)
    n_max = space.n_max
    alpha = beta * beta
    out = np.zeros((n_max, n_max))
    m_low, k_low = np.tril_indices(n_max)
    l_low = (m_low - k_low).astype(float)
    if alpha == 0.0:
        out[m_low, k_low] = l_low == 0.0
    else:
        # lag[k, l] = L_k^l(alpha) for k + l < n_max, one row per degree
        lag = np.zeros((n_max, n_max))
        l = np.arange(n_max, dtype=float)
        lag[0] = 1.0
        lag[1] = 1.0 + l - alpha
        for k in range(1, n_max - 1):
            w = n_max - 1 - k
            lag[k + 1, :w] = (
                (2 * k + 1 + l[:w] - alpha) * lag[k, :w] - (k + l[:w]) * lag[k - 1, :w]
            ) / (k + 1)
        log_fact = np.array([math.lgamma(i + 1.0) for i in range(n_max)])
        log_pref = (
            0.5 * (log_fact[k_low] - log_fact[m_low])
            + 0.5 * l_low * math.log(alpha)
            - 0.5 * alpha
        )
        out[m_low, k_low] = np.exp(log_pref) * lag[k_low, m_low - k_low]
    # m < k from antisymmetry: I(m, k) = (-1)^(m-k) I(k, m)
    m_idx, k_idx = np.triu_indices(n_max, 1)
    signs = np.where((k_idx - m_idx) % 2 == 1, -1.0, 1.0)
    out[m_idx, k_idx] = signs * out[k_idx, m_idx]
    return out
