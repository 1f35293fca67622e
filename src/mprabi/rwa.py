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
:func:`_secular_spectrum`.  :func:`spectrum_records` is its public reader
(scalar records, the JSON export); the secular basis that
:func:`mprabi.dynamics.evolve_rwa` expands is built from it too.

The secular treatment is valid for |delta_n| << omega and |V_N(n)| << omega.
:func:`mprabi.runner.resolve_params` warns about the detuning and
:func:`coupling_element` about its element; :func:`spectrum_records` and
:func:`mprabi.dynamics.evolve_rwa` each emit at most one
:class:`RWAValidityWarning`, for the manifolds they use whose |V_N(n)|
reaches 0.1 omega (``evolve_rwa`` with the initial weight there).
All functions are pure and thread safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fockmath import (
    SPIN_DOWN,
    SPIN_UP,
    FockSpace,
    displacement_matrix,
    laguerre_poly,
)
from .model import ModelParams, displaced_energy, position_operator

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
    """Local ladder size that holds the displacement tails of levels <= n_top."""
    b = abs(params.lambda_g / params.omega) + abs(params.lambda_e / params.omega)
    return n_top + 22 + int(math.ceil(8.0 * (b * b + b * math.sqrt(n_top + 1.0))))


def _transition_coupling(params: ModelParams, n_loc: int):
    """C[k, m] = lambda_eg <k^g| (a_dag + a) |m^e> on the lowest n_loc levels.

    Column k of D(+lambda_g/omega) is the down-ladder level k^g and column m
    of D(-lambda_e/omega) the up-ladder level m^e, so two displacement
    matrices give C = lambda_eg D_g^T (a_dag + a) D_e in one product.
    Returns C with the two real displacement matrices (D_g, D_e).
    """
    space = FockSpace(n_loc)
    d_down = displacement_matrix(params.lambda_g / params.omega, space)
    d_up = displacement_matrix(-params.lambda_e / params.omega, space)
    return params.lambda_eg * (d_down.T @ position_operator(n_loc) @ d_up), d_down, d_up


def coupling_element(params: ModelParams, n_manifold: int, n: int) -> float:
    """Transition matrix element V_N(n) between the two displaced ladders.

    The paper's form lambda_eg [(lambda_g - lambda_e)/omega - n/s] I(N - n, N, s**2),
    s = (lambda_e + lambda_g)/omega, has a pole at s = 0 that the |s|**n of I
    cancels.  Written out, with the sign of the displacement direction,

        V_N(n) = (-1)**n lambda_eg sqrt((N - n)!/N!) exp(-s**2/2)
                 * L_{N-n}^{(n)}(s**2) s**(n-1) ((lambda_g - lambda_e) s/omega - n)

    is finite for every sign and size of s.  At s = 0 only n = 1 survives,
    with V_N(1) = lambda_eg sqrt(N): the selection rule of the symmetric model.
    """
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    if n_manifold < n:
        raise ValueError(f"manifold N = {n_manifold} must be >= n = {n}")
    s = (params.lambda_e + params.lambda_g) / params.omega
    val = (
        (-1) ** n * params.lambda_eg * math.exp(-0.5 * s * s)
        * laguerre_poly(n_manifold - n, n, s * s) * s ** (n - 1)
        * ((params.lambda_g - params.lambda_e) * s / params.omega - n)
        / math.sqrt(math.perm(n_manifold, n))
    )
    if abs(val) >= WEAK_COUPLING_LIMIT * params.omega:
        warnings.warn(
            f"|V_{n_manifold}({n})| = {abs(val):.3g} is not small against "
            f"omega = {params.omega:.3g}; secular results are unreliable",
            RWAValidityWarning,
            stacklevel=2,
        )
    return val


def rabi_frequency(params: ModelParams, n_manifold: int, n: int) -> float:
    """Multiphoton vacuum Rabi frequency Omega_N(n) = 2 |V_N(n)|."""
    return 2.0 * abs(coupling_element(params, n_manifold, n))


#: secular orders: 1 is the paper's treatment, 2 adds the level shifts
ORDERS = (1, 2)


def _shifts(params: ModelParams, n: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second-order shifts (down, up) of every level of the ladder of C.

    Sums the squared off-resonant and counter-rotating elements C_{k,m} over
    their energy denominators (see the module docstring), leaving out each
    level's resonant partner k - m = n.  On a C padded past the displacement
    tails of level N, as :func:`_secular_spectrum` builds it, the shifts of
    the levels up to N depend on the model alone, not on the padding.
    Raises ValueError when a pair other than the resonant partners is within
    the resonance window, i.e. when n is not the resonance of the model.
    """
    levels = np.arange(c.shape[0])
    e_down, e_up = (displaced_energy(params, spin, levels) for spin in (SPIN_DOWN, SPIN_UP))
    partner = levels[:, None] - levels[None, :] == n
    # gap[k, m] = E_down(k) - E_up(m); the partner entries are near zero and
    # carry no weight
    gap = np.where(partner, 1.0, e_down[:, None] - e_up[None, :])
    if np.any(np.abs(gap) < RESONANCE_WINDOW * params.omega):
        raise ValueError(
            f"a non-partner level pair lies within {RESONANCE_WINDOW} omega; "
            f"n = {n} is not the resonance of this model"
        )
    weight = np.where(partner, 0.0, c * c) / gap
    return np.sum(weight, axis=1), -np.sum(weight, axis=0)


@dataclass(frozen=True, eq=False)
class _Spectrum:
    """What :func:`_secular_spectrum` returns: D(+lambda_g/omega), D(-lambda_e/omega)
    and the energies ``low`` of the unmixed manifolds N < n; then, in row N - n
    for each manifold N >= n, V, the block detuning ``delta`` (delta_n at
    first order, delta_eff at second) and the energies and coefficients of its
    alpha = +1 (column 0) and alpha = -1 (column 1) states."""

    d_down: np.ndarray
    d_up: np.ndarray
    low: np.ndarray
    v: np.ndarray
    delta: np.ndarray
    energy: np.ndarray
    c_down: np.ndarray
    c_up: np.ndarray
    degenerate: np.ndarray


def _secular_spectrum(params: ModelParams, n: int, n_top: int, order: int) -> _Spectrum:
    """Every dressed pair of the manifolds n <= N < n_top, solved as arrays.

    One :func:`_transition_coupling` on the ladder padded past level n_top
    gives both displacement matrices and C; V_N(n) is its band C[N, N - n],
    and at ``order=2`` the level shifts come from the same C.  Each block
    [[E_down(N), V], [V, E_up(N - n)]] keeps the better conditioned of its
    two null vectors, normalized with c_down >= 0; a block with
    V = delta = 0 is degenerate and keeps the unmixed states.
    """
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    n_loc = _padded_size(params, n_top)
    c, d_down, d_up = _transition_coupling(params, n_loc)
    levels = np.arange(n_loc)
    e_down, e_up = (displaced_energy(params, spin, levels) for spin in (SPIN_DOWN, SPIN_UP))
    if order == 2:
        shift_down, shift_up = _shifts(params, n, c)
        e_down, e_up = e_down + shift_down, e_up + shift_up
    big = np.arange(n, n_top)
    v = c[big, big - n][:, None]
    lo, hi = e_down[big, None], e_up[big - n, None]
    delta = hi - lo  # omega_eg - n * omega at first order, delta_eff at second
    energy = 0.5 * (lo + hi) + np.hypot(0.5 * delta, v) * np.array([1.0, -1.0])
    # of the parallel null vectors (V, E - E_down) and (E - E_up, V), keep
    # the longer, better conditioned one
    first = np.abs(energy - lo) >= np.abs(energy - hi)
    c_down, c_up = np.where(first, v, energy - hi), np.where(first, energy - lo, v)
    degenerate = (v == 0.0) & (delta == 0.0)
    norm = np.where(degenerate, 1.0, np.hypot(c_down, c_up))
    sign = np.where((c_down < 0.0) | ((c_down == 0.0) & (c_up < 0.0)), -1.0, 1.0)
    c_down, c_up = sign * c_down / norm, sign * c_up / norm
    degenerate = degenerate[:, 0]
    c_down[degenerate], c_up[degenerate] = (0.0, 1.0), (1.0, 0.0)
    return _Spectrum(
        d_down, d_up, e_down[:n], v[:, 0], delta[:, 0], energy, c_down, c_up, degenerate
    )


def _warn_strong(params: ModelParams, n: int, manifolds, v, weight=None) -> None:
    """One RWAValidityWarning for the manifolds whose |V_N(n)| is not small
    against omega; ``weight`` (one entry per manifold) adds their sum."""
    strong = np.abs(v) >= WEAK_COUPLING_LIMIT * params.omega
    if not np.any(strong):
        return
    picked = np.asarray(manifolds)[strong]
    held = "" if weight is None else f", and hold {np.sum(weight[strong]):.3g} of the initial state"
    warnings.warn(
        f"{picked.size} manifolds N = {picked.min()}..{picked.max()} have |V_N({n})|/omega "
        f"up to {np.max(np.abs(v[strong])) / params.omega:.3g}, not small{held}; "
        "secular results there are unreliable",
        RWAValidityWarning, stacklevel=3,
    )


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
    shift.  Warns once about the manifolds whose |V_N(n)| is not small.
    """
    wanted = np.asarray(manifolds, dtype=int)
    if np.any(wanted < n):
        raise ValueError(f"manifolds must be >= n = {n}, got {wanted.min()}")
    s = _secular_spectrum(params, n, int(wanted.max(initial=n - 1)) + 1, order)
    _warn_strong(params, n, wanted, s.v[wanted - n])
    delta_n = omega_eg(params) - n * params.omega
    records = [
        {
            "n_manifold": int(row + n),
            "n": n,
            "delta_n": delta_n,
            "delta_eff": float(s.delta[row]),
            "V": float(s.v[row]),
            "Omega": 2.0 * abs(float(s.v[row])),
            "E_plus": float(s.energy[row, 0]),
            "E_minus": float(s.energy[row, 1]),
            "c_down": float(s.c_down[row, 0]),
            "c_up": float(s.c_up[row, 0]),
        }
        for row in wanted - n
    ]
    low = [{"n_manifold": k, "n": n, "energy": float(s.low[k])} for k in range(n)]
    return {"order": order, "low_manifolds": low, "manifolds": records}
