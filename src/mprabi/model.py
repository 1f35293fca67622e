"""Hamiltonian assembly for a two-level system with permanent dipole couplings
coupled to a single quantized oscillator mode.

With hbar = 1 (all energies in angular-frequency units) the full Hamiltonian on
the truncated product space is

    H = omega (a_dag a + 1/2) + (omega0/2) sigma_z
        + (-lambda_g P_down + lambda_e P_up + lambda_eg sigma_x)(a_dag + a),

where P_down/P_up project on the spin-down/up state.  Setting
lambda_g = lambda_e = 0 recovers the usual two-level/oscillator model with
counter-rotating terms included.

Each spin branch alone is a position-displaced oscillator: the up branch has
eigenstates D(-lambda_e/omega)|N> and the down branch D(+lambda_g/omega)|N>,
with the closed-form ladder energies returned by :func:`displaced_energy`.

Matrices are plain numpy arrays, dense (the dimensions are desk scale) and
real (float64), as the model is real symmetric; the full one acts on the
:class:`~mprabi.fockmath.FockSpace` product basis.  The photon-index
bandwidth is 1; a sparse backend could exploit that but is not needed here.
Construction is pure and the arrays are frozen read-only, safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fockmath import SPIN_DOWN, SPIN_UP, FockSpace

_BRANCHES = (SPIN_DOWN, SPIN_UP)


@dataclass(frozen=True)
class ModelParams:
    """Model frequencies and couplings, hbar = 1.

    omega is the oscillator angular frequency and serves as the reference
    unit; omega0 is the bare two-level splitting.  lambda_g and lambda_e are
    the diagonal (permanent-dipole) couplings of the down and up state, and
    lambda_eg is the transition coupling (taken real).

    The down-state coupling enters the Hamiltonian with a built-in minus sign,
    which encodes mean dipole moments of opposite sign for the two levels; by
    default lambda_g and lambda_e must therefore be >= 0.  Pass
    ``allow_signed=True`` to lift that check and map signed values literally.
    """

    omega: float
    omega0: float
    lambda_g: float = 0.0
    lambda_e: float = 0.0
    lambda_eg: float = 0.0
    allow_signed: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("omega", "omega0", "lambda_g", "lambda_e", "lambda_eg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not self.allow_signed and (self.lambda_g < 0 or self.lambda_e < 0):
            raise ValueError(
                "lambda_g and lambda_e must be >= 0 "
                "(use allow_signed=True to permit signed couplings)"
            )


def position_operator(n_max: int) -> np.ndarray:
    """Quadrature matrix a_dag + a on the truncated Fock space (real, tridiagonal)."""
    sq = np.sqrt(np.arange(1.0, n_max))
    return np.diag(sq, 1) + np.diag(sq, -1)


def build_displaced_branch(params: ModelParams, branch: str, space: FockSpace) -> np.ndarray:
    """Single-branch displaced-oscillator block (n_max x n_max, read-only).

    up:   omega (a_dag a + 1/2) + omega0/2 + lambda_e (a_dag + a)
    down: omega (a_dag a + 1/2) - omega0/2 - lambda_g (a_dag + a)
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be '{SPIN_DOWN}' or '{SPIN_UP}', got {branch!r}")
    n_max = space.n_max
    ho = params.omega * (np.arange(n_max) + 0.5)
    x = position_operator(n_max)
    if branch == SPIN_UP:
        block = np.diag(ho + 0.5 * params.omega0) + params.lambda_e * x
    else:
        block = np.diag(ho - 0.5 * params.omega0) - params.lambda_g * x
    block.setflags(write=False)
    return block


def build_full(params: ModelParams, space: FockSpace) -> np.ndarray:
    """Full Hamiltonian on the 2 n_max product space (read-only float64).

    Assembled literally as the two displaced branch blocks on the spin
    diagonal plus lambda_eg (a_dag + a) on the spin off-diagonal, so the
    decomposition into branches holds entrywise exactly.
    """
    n_max = space.n_max
    h = np.zeros((space.dim, space.dim))
    dn = space.block(SPIN_DOWN)
    up = space.block(SPIN_UP)
    h[dn, dn] = build_displaced_branch(params, SPIN_DOWN, space)
    h[up, up] = build_displaced_branch(params, SPIN_UP, space)
    coupling = params.lambda_eg * position_operator(n_max)
    h[dn, up] = coupling
    h[up, dn] = coupling
    h.setflags(write=False)
    return h


def displaced_energy(params: ModelParams, branch: str, n):
    """Closed-form eigenenergy of level n of one displaced branch.

    up:   omega0/2 + omega (n + 1/2) - lambda_e**2 / omega
    down: -omega0/2 + omega (n + 1/2) - lambda_g**2 / omega

    ``n`` may be an integer array, which gives the levels' energies as one.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be '{SPIN_DOWN}' or '{SPIN_UP}', got {branch!r}")
    if np.any(np.asarray(n) < 0):
        raise ValueError(f"level index must be >= 0, got {n}")
    base = params.omega * (n + 0.5)
    if branch == SPIN_UP:
        return base + 0.5 * params.omega0 - params.lambda_e**2 / params.omega
    return base - 0.5 * params.omega0 - params.lambda_g**2 / params.omega
