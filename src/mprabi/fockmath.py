"""Displaced-oscillator special functions.

Generalized Laguerre polynomials and the Fock matrix of the displacement
operator on a truncated boson space.

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
``displacement_matrix(beta, space)``, which is finite at every n_max.  The
``k = 0`` column is a coherent state whose photon-number distribution is
Poisson with mean ``beta**2`` (the mean is the displacement squared, not the
displacement itself).  :func:`laguerre_transition` is the independent scalar
route to the same elements, which the closed forms use.

All functions here are pure and hold no shared mutable state, so they are safe
to call from any number of threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: ln 2 = _LN2_HI + _LN2_LO, where k _LN2_HI is exact for |k| < 2**21 (Cody-Waite)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
#: n_max x n_max float64 matrices :func:`displacement_matrix` holds at its peak,
#: rounded up: tracemalloc measures 1.01-1.35 at n_max 50-1200, the matrix it
#: returns and its O(n_max) vectors
_DISPLACEMENT_MATRICES = 2


def _reserve(*shape: int) -> None:
    """Ask the allocator for a float64 array of ``shape``, a routine's peak, and
    let it go unwritten, so that no page is touched: a peak it refuses, or one
    past numpy's index range, raises MemoryError before any work."""
    try:
        np.empty(shape)
    except ValueError as exc:  # the one translation of numpy's size error
        raise MemoryError(str(exc)) from exc


@dataclass(frozen=True)
class FockSpace:
    """Truncated boson space keeping photon numbers 0 .. n_max-1.

    The two-level product basis is the down block, then the up block: the
    slices :attr:`down` and :attr:`up`.  This layout is fixed; code that
    needs another order permutes explicitly."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 2:
            raise ValueError(f"n_max must be an integer >= 2, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        """Dimension of the spin (x) boson product space."""
        return 2 * self.n_max

    @property
    def down(self) -> slice:
        """Slice of the product basis belonging to the down state."""
        return slice(0, self.n_max)

    @property
    def up(self) -> slice:
        """Slice of the product basis belonging to the up state."""
        return slice(self.n_max, self.dim)


def laguerre_poly(n: int, l: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^l(x).

    Evaluated with the three-term recurrence in the degree, which is
    numerically stable and O(n); the Rodrigues derivative form is not used.
    The superscript may be any integer (the recurrence stays valid below -n).
    A value past the float range raises OverflowError.
    """
    return math.ldexp(*_laguerre_frexp(n, l, x))


def _laguerre_frexp(n: int, l: int, x: float) -> tuple[float, int]:
    """L_n^l(x) as (m, e), the value m 2**e with m = 0 or 0.5 <= |m| < 1:
    value n of :func:`_laguerre_sweep`."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return next(itertools.islice(_laguerre_sweep(l, x), n, None))


def _laguerre_sweep(l: int, x: float):
    """Yield L_0^l(x), L_1^l(x), ... as :func:`_laguerre_frexp` gives them:
    :func:`laguerre_poly`'s recurrence, advanced one degree per value, with
    a binary exponent carried through it, so that no step overflows and,
    where the plain recurrence stays in range, each value is its value."""
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    yield math.frexp(1.0)
    prev, cur, exponent = 1.0, 1.0 + l - x, 0
    for k in itertools.count(1):
        mantissa, scale = math.frexp(cur)
        yield mantissa, exponent + scale
        prev, cur = cur, ((2 * k + 1 + l - x) * cur - (k + l) * prev) / (k + 1)
        if abs(cur) > 2.0**512:  # both terms scaled by one power of two, which rounds nothing
            cur, scale = math.frexp(cur)
            prev, exponent = math.ldexp(prev, -scale), exponent + scale


def _exp_frexp(y: float) -> tuple[float, int]:
    """exp(y) as (m, k), its value m 2**k with k = round(y / ln 2), so that m
    lies in [0.7, 1.42] for any finite y; m is exp(y) itself where k = 0."""
    k = round(y / math.log(2.0))
    return math.exp((y - k * _LN2_HI) - k * _LN2_LO), k


def laguerre_transition(s: int, s_prime: int, alpha: float) -> float:
    """Transition function I(s, s', alpha) between displaced Fock ladders.

    This is the overlap amplitude <s|D(sqrt(alpha))|s'> for a relative
    displacement sqrt(alpha) >= 0.  For s < s' the call is routed through the
    antisymmetry relation I(s, s') = (-1)^(s-s') I(s', s) so that both index
    orders share one code path and the relation holds exactly as computed.
    Factorial ratios go through lgamma, and the prefactor and the Laguerre
    value each carry a binary exponent, so a representable I comes out where
    the Laguerre value overflows and the prefactor underflows.
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
    scale, twos = _exp_frexp(log_pref)
    mantissa, exponent = _laguerre_frexp(s_prime, s - s_prime, alpha)
    return math.ldexp(scale * mantissa, twos + exponent)


def _displaced_vacuum(beta: float, n_max: int) -> np.ndarray:
    """Column 0 of D(beta), the coherent state <l|D(beta)|0> =
    exp(-beta**2/2) beta**l / sqrt(l!) for l < n_max, taken in logs so that
    neither factor leaves the float range (beta = 0 takes log 0 = -inf to 0)."""
    with np.errstate(divide="ignore"):
        steps = np.log(abs(beta) / np.sqrt(np.arange(1.0, n_max)))
    vacuum = np.exp(np.concatenate(([0.0], np.cumsum(steps))) - 0.5 * beta * beta)
    if beta < 0.0:
        vacuum[1::2] *= -1.0
    return vacuum


def displacement_matrix(beta: float, space: FockSpace) -> np.ndarray:
    """Matrix of D(beta) on the truncated Fock space; column k is D(beta)|k>.

    Entries are the exact infinite-space elements <m|D(beta)|k> windowed to
    n_max x n_max, so columns lose norm only through truncation: the matrix is
    unitary up to truncation error for ``beta**2`` well below ``n_max``.

    For beta >= 0, g_k[l] = <k+l|D(beta)|k> = I(k+l, k, beta**2), all of
    modulus <= 1, follow from :func:`laguerre_poly`'s degree recurrence,
    normalized, run over the vector of l from g_0 = :func:`_displaced_vacuum`:

        g_{k+1} = ((2k+1+l-beta**2) g_k - sqrt(k(k+l)) g_{k-1}) / sqrt((k+1)(k+1+l))

    Each g_k fills column k below the diagonal and, by antisymmetry, row k
    above it; a negative beta fills the transposed places.  Its peak, the
    matrix and O(n_max) vectors, is reserved first (:data:`_DISPLACEMENT_MATRICES`).
    """
    if not math.isfinite(beta):
        raise ValueError(f"displacement must be finite, got {beta}")
    n_max = space.n_max
    _reserve(_DISPLACEMENT_MATRICES, n_max, n_max)
    alpha = beta * beta
    l = np.arange(n_max, dtype=float)
    signs = 1.0 - 2.0 * (l % 2)
    out = np.empty((n_max, n_max))
    lower, upper = (out, out.T) if beta >= 0.0 else (out.T, out)
    g, g_prev, root_prev = _displaced_vacuum(abs(beta), n_max), np.zeros(n_max), np.zeros(n_max)
    for k, w in enumerate(range(n_max - 1, -1, -1)):  # g_{k+1} holds w elements
        lower[k:, k] = g
        upper[k:, k] = signs[: w + 1] * g
        root = np.sqrt((k + 1) * (k + 1 + l[:w]))  # sqrt(k(k+l)) at the next step
        step = (2 * k + 1 - alpha + l[:w]) * g[:w] - root_prev[:w] * g_prev[:w]
        g, g_prev, root_prev = step / root, g, root
    return out
