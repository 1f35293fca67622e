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

The secular treatment is valid for |delta_n| << omega and |V_N(n)| << omega;
both conditions are monitored and emit :class:`RWAValidityWarning` when
violated.  All functions are pure and thread safe.
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
    laguerre_transition,
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


@dataclass(frozen=True)
class ResonanceSpec:
    """An n-photon resonance and its detuning delta_n = omega_eg - n * omega."""

    n: int
    delta_n: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"photon order must be >= 1, got {self.n}")
        if not math.isfinite(self.delta_n):
            raise ValueError("delta_n must be finite")

    @classmethod
    def from_params(cls, params: ModelParams, n: int) -> "ResonanceSpec":
        """Detuning computed from the model parameters; warns when the
        resonance sits outside the |delta_n| < omega/10 window."""
        delta = omega_eg(params) - n * params.omega
        if abs(delta) > RESONANCE_WINDOW * params.omega:
            warnings.warn(
                f"detuning |delta_{n}| = {abs(delta):.3g} is not small against "
                f"omega = {params.omega:.3g}; secular results are unreliable",
                RWAValidityWarning,
                stacklevel=2,
            )
        return cls(n=n, delta_n=delta)


def _padded_size(params: ModelParams, n_top: int) -> int:
    """Local ladder size that holds the displacement tails of levels <= n_top."""
    b = abs(params.lambda_g / params.omega) + abs(params.lambda_e / params.omega)
    return n_top + 22 + int(math.ceil(8.0 * (b * b + b * math.sqrt(n_top + 1.0))))


def _transition_coupling(params: ModelParams, n_loc: int) -> np.ndarray:
    """C[k, m] = lambda_eg <k^g| (a_dag + a) |m^e> on the lowest n_loc levels.

    Column k of D(+lambda_g/omega) is the down-ladder level k^g and column m
    of D(-lambda_e/omega) the up-ladder level m^e, so two displacement
    matrices give C = lambda_eg D_g^T (a_dag + a) D_e in one product.
    """
    space = FockSpace(n_loc)
    d_down = displacement_matrix(params.lambda_g / params.omega, space).real
    d_up = displacement_matrix(-params.lambda_e / params.omega, space).real
    return params.lambda_eg * (d_down.T @ position_operator(n_loc) @ d_up)


def coupling_element(
    params: ModelParams,
    n_manifold: int,
    n: int,
    *,
    singular_threshold: float = 1e-6,
) -> float:
    """Transition matrix element V_N(n) between the two displaced ladders.

    Closed form:

        V_N(n) = lambda_eg [ (lambda_g - lambda_e)/omega
                             - n omega / (lambda_e + lambda_g) ]
                 * I(N - n, N, (lambda_g + lambda_e)**2 / omega**2)

    For a negative coupling sum the closed form picks up an extra (-1)^n from
    the displacement direction.  When |lambda_e + lambda_g| / omega falls below
    ``singular_threshold`` the 0 * inf form is replaced by the direct matrix
    element C[N, N-n] of :func:`_transition_coupling`, on a truncation padded
    past the displacement tails; it is finite there (and exactly zero for
    n >= 2 when both diagonal couplings vanish).
    """
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    if n_manifold < n:
        raise ValueError(f"manifold N = {n_manifold} must be >= n = {n}")
    s = (params.lambda_e + params.lambda_g) / params.omega
    if abs(s) < singular_threshold:
        c = _transition_coupling(params, _padded_size(params, n_manifold))
        val = float(c[n_manifold, n_manifold - n])
    else:
        pref = (params.lambda_g - params.lambda_e) / params.omega - n * params.omega / (
            params.lambda_e + params.lambda_g
        )
        val = params.lambda_eg * pref * laguerre_transition(n_manifold - n, n_manifold, s * s)
        if s < 0.0 and n % 2:
            val = -val
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


@dataclass(frozen=True, eq=False)
class LevelShifts:
    """Second-order shifts of the lowest ladder levels for an n-photon resonance.

    ``down[k]`` shifts the down-branch level k (k < n_levels) and ``up[m]``
    the up-branch level m (m < n_levels - n), so manifold N < n_levels finds
    its pair at ``down[N]`` and ``up[N - n]``.
    """

    n: int
    down: np.ndarray
    up: np.ndarray


def level_shifts(params: ModelParams, n: int, n_levels: int) -> LevelShifts:
    """Second-order level shifts of the manifolds N = 0 .. n_levels-1.

    Sums the squared off-resonant and counter-rotating elements C_{k,m} over
    energy denominators (see the module docstring), leaving out each level's
    resonant partner k - m = n.  C is built once by
    :func:`_transition_coupling` on a ladder padded past the displacement
    tails of the top level, so a level's shift depends on the model alone,
    not on ``n_levels``.
    Raises ValueError when a pair other than the resonant partners is within
    the resonance window, i.e. when the model does not sit near the n-photon
    resonance.
    """
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    if n_levels < n:
        raise ValueError(f"n_levels = {n_levels} must be >= n = {n}")
    n_loc = _padded_size(params, n_levels)
    c = _transition_coupling(params, n_loc)
    e_down = np.array([displaced_energy(params, SPIN_DOWN, k) for k in range(n_loc)])
    e_up = np.array([displaced_energy(params, SPIN_UP, m) for m in range(n_loc)])
    levels = np.arange(n_loc)
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
    return LevelShifts(
        n=n,
        down=np.sum(weight, axis=1)[:n_levels],
        up=-np.sum(weight, axis=0)[: n_levels - n],
    )


@dataclass(frozen=True)
class DressedPair:
    """One of the two entangled eigenstates of a resonance manifold.

    The state is c_down |down, N^(lambda_g)> + c_up |up, (N-n)^(lambda_e)>,
    normalized with c_down real and >= 0.  ``alpha`` is the branch sign in

        E = (E_down(N) + E_up(N-n)) / 2 + alpha * sqrt(delta**2/4 + V**2),

    where at second order the ladder energies carry their level shifts and
    delta is the effective detuning delta_eff.

    ``degenerate`` marks the case V = delta = 0, where no preferred mixing
    exists and the unmixed basis states are returned instead.
    """

    n_manifold: int
    alpha: int
    energy: float
    c_down: complex
    c_up: complex
    degenerate: bool = False


def dressed_pair(
    params: ModelParams,
    spec: ResonanceSpec,
    n_manifold: int,
    *,
    order: int = 1,
    shifts: "LevelShifts | None" = None,
) -> tuple[DressedPair, DressedPair]:
    """Both entangled eigenstates (alpha = +1, -1) of manifold N = n_manifold.

    The detuning entering the 2x2 secular block is recomputed from the ladder
    energies.  At ``order=1`` (the paper's treatment) it is manifold
    independent and equals ``spec.delta_n`` whenever the ResonanceSpec came
    from the same parameters.  At ``order=2`` both ladder energies carry their
    second-order shifts, so the block sees the manifold-dependent delta_eff
    and the gap E_plus - E_minus follows exact diagonalization to within a
    fraction of a percent at the shipped couplings.  ``shifts`` passes
    precomputed :func:`level_shifts` covering this manifold; when None they
    are computed for it.
    """
    n = spec.n
    if n_manifold < n:
        raise ValueError(f"manifold N = {n_manifold} must be >= n = {n}")
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    e_down = displaced_energy(params, SPIN_DOWN, n_manifold)
    e_up = displaced_energy(params, SPIN_UP, n_manifold - n)
    if order == 2:
        if shifts is None:
            shifts = level_shifts(params, n, n_manifold + 1)
        elif shifts.n != n:
            raise ValueError(f"shifts are for n = {shifts.n}, the resonance has n = {n}")
        e_down += float(shifts.down[n_manifold])
        e_up += float(shifts.up[n_manifold - n])
    v = coupling_element(params, n_manifold, n)
    delta = e_up - e_down  # omega_eg - n * omega at first order, delta_eff at second

    if v == 0.0 and delta == 0.0:
        down = DressedPair(n_manifold, -1, e_down, 1.0, 0.0, degenerate=True)
        up = DressedPair(n_manifold, +1, e_up, 0.0, 1.0, degenerate=True)
        return (up, down)

    mean = 0.5 * (e_down + e_up)
    half_split = math.hypot(0.5 * delta, v)
    pair = []
    for alpha in (+1, -1):
        energy = mean + alpha * half_split
        # two parallel null-vector candidates of the 2x2 block; keep the
        # better conditioned one
        cand1 = (v, energy - e_down)
        cand2 = (energy - e_up, v)
        c_down, c_up = max(cand1, cand2, key=lambda c: c[0] * c[0] + c[1] * c[1])
        norm = math.hypot(c_down, c_up)
        c_down, c_up = c_down / norm, c_up / norm
        if c_down < 0.0 or (c_down == 0.0 and c_up < 0.0):
            c_down, c_up = -c_down, -c_up
        pair.append(DressedPair(n_manifold, alpha, energy, c_down, c_up))
    return (pair[0], pair[1])


def low_manifold_states(
    params: ModelParams, spec: ResonanceSpec, space: FockSpace
) -> list[tuple[np.ndarray, float]]:
    """The n unmixed eigenstates below the first resonant manifold.

    Returns ``[(amplitudes, energy), ...]`` for N = 0 .. n-1, where each
    amplitude vector lives on the product basis and holds the down-spin
    displaced Fock state D(+lambda_g/omega)|N>, column N of the displacement
    matrix.  For lambda_g != 0 the N = 0 member carries a coherent photon
    distribution of mean (lambda_g/omega)**2.
    """
    d_down = displacement_matrix(params.lambda_g / params.omega, space)
    dn = space.block(SPIN_DOWN)
    out = []
    for n_photon in range(spec.n):
        vec = np.zeros(space.dim, dtype=complex)
        vec[dn] = d_down[:, n_photon]
        out.append((vec, displaced_energy(params, SPIN_DOWN, n_photon)))
    return out


def spectrum_records(
    params: ModelParams, spec: ResonanceSpec, manifolds: "list[int] | range"
) -> dict:
    """JSON-shaped spectrum export.

    One record per requested manifold N >= n with keys
    {n_manifold, n, delta_n, V, Omega, E_plus, E_minus, c_down, c_up}
    (coefficients of the alpha = +1 state; the alpha = -1 partner follows by
    orthogonality), plus the unmixed low manifolds N = 0 .. n-1 as
    {n_manifold, n, energy}.
    """
    records = []
    for n_manifold in manifolds:
        plus, minus = dressed_pair(params, spec, n_manifold)
        v = coupling_element(params, n_manifold, spec.n)
        records.append(
            {
                "n_manifold": int(n_manifold),
                "n": spec.n,
                "delta_n": spec.delta_n,
                "V": v,
                "Omega": 2.0 * abs(v),
                "E_plus": plus.energy,
                "E_minus": minus.energy,
                "c_down": float(np.real(plus.c_down)),
                "c_up": float(np.real(plus.c_up)),
            }
        )
    low = [
        {
            "n_manifold": n_photon,
            "n": spec.n,
            "energy": displaced_energy(params, SPIN_DOWN, n_photon),
        }
        for n_photon in range(spec.n)
    ]
    return {"low_manifolds": low, "manifolds": records}
