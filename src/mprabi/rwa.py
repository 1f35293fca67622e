"""Multiphoton rotating-wave machinery.

At an n-photon resonance the shifted transition frequency

    omega_eg = omega0 + (lambda_g**2 - lambda_e**2) / omega

is close to n * omega, the two displaced ladders cross
(E_down(N) ~ E_up(N - n)) and the transition coupling lifts the degeneracy.
Each manifold N >= n then carries a pair of entangled eigenstates mixing
|down, N displaced by +lambda_g/omega> with |up, N-n displaced by
-lambda_e/omega>, split by twice the coupling element V_N(n); the manifolds
N < n stay unmixed.

That is the paper's treatment, first order in lambda_eg (``order=1``).  At
second order (``order=2``) the elements the secular block drops, the
off-resonant and counter-rotating

    C_{k,m} = lambda_eg <k^g| (a_dag + a) |m^e>,

shift every ladder level (Bloch-Siegert-type shifts):

    dE_down(N) = sum_{m != N-n} C_{N,m}**2 / (E_down(N) - E_up(m))
    dE_up(M)   = sum_{k != M+n} C_{k,M}**2 / (E_up(M) - E_down(k))

The shifts are differential, so the 2x2 block of manifold N sees the
effective detuning

    delta_eff = (E_up(N-n) + dE_up(N-n)) - (E_down(N) + dE_down(N))

in place of delta_n, and its gap is 2 sqrt(delta_eff**2/4 + V**2) rather than
2|V_N(n)|.  At lambda_eg = 0.02 omega the lowest manifolds have delta_eff of
1.2e-3 to 1.6e-3 omega, comparable to the three-photon Omega_3(3) = 1.9e-3
omega, and over a few Rabi periods the gap error is a phase slip of order one
radian.  :func:`rabi_frequency` keeps the paper's
definition 2|V_N(n)| at either order.

Every dressed pair, at either order, comes from one array solver,
:func:`_secular_spectrum`, which returns the secular basis itself: the
product-space columns that :func:`mprabi.dynamics.evolve_rwa` expands.
:func:`spectrum_records` is its public reader (scalar records, the JSON export).

The secular treatment is valid for |delta_n| << omega and |V_N(n)| << omega.
The two callers that make secular results warn through one rule,
:func:`_warn_invalid`: :func:`spectrum_records` and
:func:`mprabi.dynamics.project_secular` each raise at most one
:class:`RWAValidityWarning` about a detuning past 0.1 omega and at most one
about the manifolds whose |V_N(n)| reaches 0.1 omega: the manifolds the
export holds, or those the start state leans on, with the initial weight
there.  Parameter resolution and a numeric-only run warn about nothing, and
:func:`coupling_element` and :func:`rabi_frequency` are closed forms that
warn about nothing either.
All functions are pure and thread safe.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fockmath import FockSpace, _exp_frexp, _laguerre_sweep, _reserve, displacement_matrix
from .model import ModelParams, ladder_energies

#: detuning window (in units of omega) beyond which a resonance is flagged
RESONANCE_WINDOW = 0.1

#: coupling size (in units of omega) at which the weak-coupling warning fires
WEAK_COUPLING_LIMIT = 0.1


class RWAValidityWarning(UserWarning):
    """A parameter regime leaves the validity domain of the secular treatment."""


def omega_eg(params: ModelParams) -> float:
    """Shifted transition frequency between the two displaced ladders."""
    return params.omega0 + (params.lambda_g**2 - params.lambda_e**2) / params.omega


def resonant_omega0(n: int, *, omega: float, lambda_g: float = 0.0, lambda_e: float = 0.0) -> float:
    """Bare splitting omega0 that puts the shifted frequency exactly at n * omega."""
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    return n * omega - (lambda_g**2 - lambda_e**2) / omega


def _padded_size(params: ModelParams, n_top: int) -> int:
    """Ladder size holding the displacement tails of levels <= n_top, once
    :func:`_secular_spectrum`'s peak on it is reserved
    (:data:`_SPECTRUM_MATRICES`).  Raises ValueError naming the ladder, its
    level count and |lambda_g| + |lambda_e|, where the count leaves the float
    range or the allocator refuses the peak."""
    b = abs(params.lambda_g / params.omega) + abs(params.lambda_e / params.omega)
    n_loc = None
    try:
        n_loc = n_top + 22 + int(math.ceil(8.0 * (b * b + b * math.sqrt(n_top + 1.0))))
        _reserve(_SPECTRUM_MATRICES, n_loc, n_loc)
    except (OverflowError, MemoryError) as exc:
        size = "a level count past the float range" if n_loc is None else f"{n_loc} levels"
        raise ValueError(
            f"the secular ladder for |lambda_g| + |lambda_e| = {b:.6g} omega, {size}, "
            f"cannot be allocated: {exc}"
        ) from exc
    return n_loc


def _transition_coupling(params: ModelParams, n_loc: int):
    """C[k, m] = lambda_eg <k^g| (a_dag + a) |m^e> on the lowest n_loc levels.

    Column k of D(+lambda_g/omega) is the down-ladder level k^g and column m
    of D(-lambda_e/omega) the up-ladder level m^e, so two displacement
    matrices give C = lambda_eg D_g^T (X D_e) in one product, X = a_dag + a
    applied as its two bands: (X D)[i] = sqrt(i) D[i - 1] + sqrt(i + 1) D[i + 1].
    Returns C with the two real displacement matrices (D_g, D_e).
    """
    space = FockSpace(n_loc)
    d_down = displacement_matrix(params.lambda_g / params.omega, space)
    d_up = displacement_matrix(-params.lambda_e / params.omega, space)
    root = np.sqrt(np.arange(1.0, n_loc))[:, None]
    x_up = np.zeros_like(d_up)
    x_up[:-1] = root * d_up[1:]
    x_up[1:] += root * d_up[:-1]
    return params.lambda_eg * (d_down.T @ x_up), d_down, d_up


def coupling_element(params: ModelParams, n_manifold: int, n: int) -> float:
    """Transition matrix element V_N(n) between the two displaced ladders.

    The paper's form lambda_eg [(lambda_g - lambda_e)/omega - n/s] I(N - n, N, s**2),
    s = (lambda_e + lambda_g)/omega, has a pole at s = 0 that the |s|**n of I
    cancels.  Written out, with the sign of the displacement direction,

        V_N(n) = (-1)**n lambda_eg sqrt((N - n)!/N!) exp(-s**2/2)
                 * L_{N-n}^{(n)}(s**2) s**(n-1) ((lambda_g - lambda_e) s/omega - n)

    is finite for every sign and size of s.  At s = 0 only n = 1 survives,
    with V_N(1) = lambda_eg sqrt(N): the selection rule of the symmetric model.
    N!/(N - n)! is a float product, exact below 2**53.  Where it or s**(n-1)
    would leave the float range (the product always does from n = 171 on, as
    it is at least n!), s**(n-1) exp(-s**2/2) / sqrt(N!/(N - n)!) is taken
    as one exponential of logs and lgamma terms.  That exponential, the
    Laguerre value and s**(n-1) each carry a binary exponent, so the product
    is formed in range where L_{N-n}^{(n)}(s**2) overflows and exp(-s**2/2)
    underflows (from |s| ~ 38 at N = 600).  ValueError names N, n and s where
    V_N(n) itself leaves it.  Raises no warning, however large V_N(n) is.
    It is the first value of :func:`_couplings` from N.
    """
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    if n_manifold < n:
        raise ValueError(f"manifold N = {n_manifold} must be >= n = {n}")
    return next(_couplings(params, n, n_manifold))


def _couplings(params: ModelParams, n: int, first: int):
    """Yield V_N(n) for N = first, first + 1, ... (first >= n): the values
    of :func:`coupling_element`, their Laguerre values read from one
    :func:`_laguerre_sweep` advanced a degree per manifold, so that a series
    over N costs O(N), not O(N**2).  The manifolds below ``first`` only
    advance the sweep, and each V_N(n) is range-checked as it is yielded."""
    s = (params.lambda_e + params.lambda_g) / params.omega
    if s == 0.0 and n > 1:  # the selection rule, where L_{N-n}^{(n)}(0) may overflow
        yield from itertools.repeat(0.0)
    sweep = itertools.islice(_laguerre_sweep(n, s * s), first - n, None)
    for n_manifold, (laguerre, laguerre_twos) in zip(itertools.count(first), sweep):
        factors = range(n_manifold - n + 1, n_manifold + 1)  # N!/(N - n)! is their product
        falling = math.prod(map(float, factors)) if n <= 170 else math.inf
        if falling < math.inf and (n - 1) * math.log(abs(s) or 1.0) < 700.0:  # e**700 ~ 1e304
            log_gauss, power, root = -0.5 * s * s, s ** (n - 1), math.sqrt(falling)
        else:
            log_root = 0.5 * (math.lgamma(n_manifold + 1) - math.lgamma(n_manifold - n + 1))
            log_gauss = (n - 1) * math.log(abs(s)) - 0.5 * s * s - log_root
            power, root = (-1.0 if s < 0 and n % 2 == 0 else 1.0), 1.0
        gauss, twos = _exp_frexp(log_gauss)
        power, power_twos = math.frexp(power)
        value = (
            (-1) ** n * params.lambda_eg * gauss * laguerre * power
            * ((params.lambda_g - params.lambda_e) * s / params.omega - n)
            / root
        )
        twos += laguerre_twos + power_twos
        if not (math.isfinite(value) and math.frexp(value)[1] + twos <= 1024):
            raise ValueError(
                f"V_N(n) at N = {n_manifold}, n = {n}, s = {s:.6g} leaves the float range"
            )
        yield math.ldexp(value, twos)


def rabi_frequency(params: ModelParams, n_manifold: int, n: int) -> float:
    """Multiphoton vacuum Rabi frequency Omega_N(n) = 2 |V_N(n)|."""
    return 2.0 * abs(coupling_element(params, n_manifold, n))


#: secular orders: 1 is the paper's treatment, 2 adds the level shifts
ORDERS = (1, 2)


def _check_resonance(params: ModelParams, n: int, n_loc: int) -> None:
    """Raise ValueError when a level pair (k, m) of the n_loc-level ladders,
    other than the resonant partners k - m = n, lies within the resonance
    window: n is then not the resonance of the model, and the order-2 shifts
    would divide by a vanishing gap.  That gap, E_down(k) - E_up(m), is
    j omega - delta_n with j = k - m - n, so only the j nearest delta_n / omega
    needs a check."""
    delta = omega_eg(params) - n * params.omega
    j = round(delta / params.omega)
    near = abs(j * params.omega - delta) < RESONANCE_WINDOW * params.omega
    if near and j != 0 and abs(j + n) < n_loc:
        raise ValueError(
            f"a non-partner level pair lies within {RESONANCE_WINDOW} omega; "
            f"n = {n} is not the resonance of this model"
        )


def _shifts(params: ModelParams, n: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second-order shifts (down, up) of every level of the ladder of C.

    Sums the squared off-resonant and counter-rotating elements C_{k,m} over
    their energy denominators (see the module docstring), leaving out each
    level's resonant partner k - m = n.  On a C padded past the displacement
    tails of level N, as :func:`_secular_spectrum` builds it, the shifts of
    the levels up to N depend on the model alone, not on the padding.
    Raises the ValueError of :func:`_check_resonance` on the ladder of C.
    """
    _check_resonance(params, n, c.shape[0])
    e_down, e_up = ladder_energies(params, np.arange(c.shape[0]))
    # gap[k, m] = E_down(k) - E_up(m); the partner entries are near zero and
    # carry no weight, so their diagonal (a strided view) is set infinite
    gap = e_down[:, None] - e_up[None, :]
    np.fill_diagonal(gap[n:], np.inf)
    weight = c * c / gap
    return np.sum(weight, axis=1), -np.sum(weight, axis=0)


@dataclass(frozen=True, eq=False)
class _Spectrum:
    """What :func:`_secular_spectrum` returns: the secular eigenbasis as real
    columns ``basis`` on the FockSpace(n_top) product space, one of
    ``energies`` per column: the n unmixed D(+lambda_g/omega)|N>, N < n,
    then the alpha = +1 state of each manifold N >= n in column n + 2(N - n)
    and its alpha = -1 partner next.  Row N - n of the rest holds V, the
    block detuning ``delta`` (delta_n at first order, delta_eff at second)
    and the coefficients of the alpha = +1 (column 0) and -1 (column 1) states."""

    basis: np.ndarray
    energies: np.ndarray
    v: np.ndarray
    delta: np.ndarray
    c_down: np.ndarray
    c_up: np.ndarray


#: n_loc x n_loc float64 matrices :func:`_secular_spectrum` holds at its peak, its
#: basis included, rounded up: tracemalloc measures 4.32-6.72 at n_loc 272-744, orders 1-2
_SPECTRUM_MATRICES = 8


def _secular_spectrum(params: ModelParams, n: int, n_top: int, order: int) -> _Spectrum:
    """The secular eigenbasis on the levels N < n_top, solved as arrays.

    One :func:`_transition_coupling` on the ladder padded past level n_top
    gives both displacement matrices and C; V_N(n) is its band C[N, N - n],
    and at ``order=2`` the level shifts come from the same C.  Each block
    [[E_down(N), V], [V, E_up(N - n)]] turns by the paper's mixing angle,
    tan 2 theta = 2 V / (E_down - E_up), with exp(i theta) the principal root
    of the unit phase of (E_down - E_up)/2 + i V: alpha = +1 is (cos theta,
    sin theta), alpha = -1 its orthogonal partner, each with c_down >= 0
    (c_up >= 0 where c_down = 0) and orthonormal however small the gap.  V =
    delta = 0 keeps the unmixed states, |up> as alpha = +1.  The top n up
    states are left out: their partners lie past n_top.
    """
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    if n > n_top:
        raise ValueError(f"photon order n = {n} exceeds the truncation n_max = {n_top}")
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    n_loc = _padded_size(params, n_top)
    c, d_down, d_up = _transition_coupling(params, n_loc)
    e_down, e_up = ladder_energies(params, np.arange(n_loc))
    if order == 2:
        shift_down, shift_up = _shifts(params, n, c)
        e_down, e_up = e_down + shift_down, e_up + shift_up
    big = np.arange(n, n_top)
    v = c[big, big - n][:, None]
    del c  # the basis below is built in its place
    lo, hi = e_down[big, None], e_up[big - n, None]
    delta = hi - lo  # omega_eg - n * omega at first order, delta_eff at second
    energy = 0.5 * (lo + hi) + np.hypot(0.5 * delta, v) * np.array([1.0, -1.0])
    z = np.where((v == 0.0) & (delta == 0.0), -1.0, -0.5 * delta + 1j * v)
    turn = np.sqrt(z / np.abs(z))  # exp(i theta): complex sqrt is exact on the real axis
    c_down = np.hstack([turn.real, np.abs(turn.imag)])
    c_up = np.hstack([turn.imag, np.where(turn.imag > 0.0, -turn.real, turn.real)])
    basis = np.zeros((2 * n_top, 2 * n_top - n))
    down, up = basis[:n_top], basis[n_top:]  # the product space's two blocks
    down[:, :n] = d_down[:n_top, :n]
    for alpha in (0, 1):  # strided slices: no (n_top, n_top - n, 2) product past the probe
        down[:, n + alpha :: 2] = d_down[:n_top, n:n_top] * c_down[:, alpha]
        up[:, n + alpha :: 2] = d_up[:n_top, : n_top - n] * c_up[:, alpha]
    energies = np.concatenate([e_down[:n], energy.ravel()])
    return _Spectrum(basis, energies, v[:, 0], delta[:, 0], c_down, c_up)


def _warn_invalid(params: ModelParams, n: int, manifolds, v, weight=None, floor=0.0) -> float:
    """The RWAValidityWarnings of secular results: one when the detuning
    delta_n = omega_eg - n omega leaves the |delta_n| < omega/10 window, and
    one for the manifolds whose |V_N(n)| is not small against omega.
    ``weight`` (one entry per manifold) adds their sum, which is returned (0
    without it), and no coupling warning is raised while the sum is below
    ``floor``."""
    delta = omega_eg(params) - n * params.omega
    if abs(delta) > RESONANCE_WINDOW * params.omega:
        warnings.warn(
            f"detuning |delta_{n}| = {abs(delta):.3g} is not small against "
            f"omega = {params.omega:.3g}; secular results are unreliable",
            RWAValidityWarning, stacklevel=3,
        )
    size = np.abs(v)
    strong = size >= WEAK_COUPLING_LIMIT * params.omega
    held = 0.0 if weight is None else float(np.sum(weight[strong]))
    if not strong.any() or held < floor:
        return held
    picked = np.asarray(manifolds)[strong]
    ratio = size[strong] / params.omega
    if picked.size == 1:
        which = f"manifold N = {picked[0]} has |V_{picked[0]}({n})|/omega = {ratio[0]:.3g}"
    else:
        which = (
            f"{picked.size} manifolds N = {picked.min()}..{picked.max()} have |V_N({n})|/omega "
            f"up to {np.max(ratio):.3g}"
        )
    share = "" if weight is None else f", and hold {held:.3g} of the initial state"
    warnings.warn(
        f"{which}, not small{share}; secular results there are unreliable",
        RWAValidityWarning, stacklevel=3,
    )
    return held


def spectrum_records(params: ModelParams, n: int, manifolds, *, order: int = 1) -> dict:
    """JSON-shaped spectrum export of the n-photon resonance at secular ``order``.

    One record per requested manifold N >= n with keys
    {n_manifold, n, delta_n, delta_eff, V, Omega, E_plus, E_minus, c_down, c_up}
    (coefficients of the alpha = +1 state; the alpha = -1 partner follows by
    orthogonality), plus the unmixed low manifolds N = 0 .. n-1 as
    {n_manifold, n, energy}.  delta_n = omega_eg - n omega is the model's
    detuning and delta_eff the block's (delta_n at first order), so
    E_plus - E_minus = hypot(delta_eff, 2 V).  All come from one
    :func:`_secular_spectrum`; at ``order=2`` every energy carries its level
    shift.  Warns once about the detuning if it leaves the secular window,
    and once about the manifolds whose |V_N(n)| is not small.
    """
    wanted = np.asarray(manifolds, dtype=int)
    if np.any(wanted < n):
        raise ValueError(f"manifolds must be >= n = {n}, got {wanted.min()}")
    s = _secular_spectrum(params, n, int(wanted.max(initial=n - 1)) + 1, order)
    _warn_invalid(params, n, wanted, s.v[wanted - n])
    delta_n = omega_eg(params) - n * params.omega
    records = [
        {
            "n_manifold": int(row + n),
            "n": n,
            "delta_n": delta_n,
            "delta_eff": float(s.delta[row]),
            "V": float(s.v[row]),
            "Omega": 2.0 * abs(float(s.v[row])),
            "E_plus": float(s.energies[n + 2 * row]),
            "E_minus": float(s.energies[n + 2 * row + 1]),
            "c_down": float(s.c_down[row, 0]),
            "c_up": float(s.c_up[row, 0]),
        }
        for row in wanted - n
    ]
    low = [{"n_manifold": k, "n": n, "energy": float(s.energies[k])} for k in range(n)]
    return {"order": order, "low_manifolds": low, "manifolds": records}
