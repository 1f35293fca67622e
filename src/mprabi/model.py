"""Hamiltonian assembly for a two-level system with permanent dipole couplings
coupled to a single quantized oscillator mode.

With hbar = 1 (all energies in angular-frequency units) the full Hamiltonian on
the truncated product space is

    H = omega (a_dag a + 1/2) + (omega0/2) sigma_z
        + (-lambda_g P_down + lambda_e P_up + lambda_eg sigma_x)(a_dag + a),

where P_down/P_up project on the spin-down/up state.  Setting
lambda_g = lambda_e = 0 recovers the usual two-level/oscillator model with
counter-rotating terms included.

Each spin block alone is a position-displaced oscillator, a ladder: the down
ladder has eigenstates D(+lambda_g/omega)|N> and the up ladder
D(-lambda_e/omega)|N>, with the closed-form energies that
:func:`ladder_energies` returns for both.

Matrices are plain numpy arrays, dense (the dimensions are desk scale) and
real (float64), as the model is real symmetric; the full one acts on the
:class:`~mprabi.fockmath.FockSpace` product basis.  The photon-index
bandwidth is 1, and :func:`build_full` writes only those bands into H.
Construction is pure and the arrays are frozen read-only, safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .fockmath import FockSpace


@dataclass(frozen=True)
class ModelParams:
    """Model frequencies and couplings, hbar = 1.

    omega is the oscillator angular frequency and serves as the reference
    unit; omega0 is the bare two-level splitting.  lambda_g and lambda_e are
    the diagonal (permanent-dipole) couplings of the down and up state, and
    lambda_eg is the transition coupling (taken real).

    The down-state coupling enters the Hamiltonian with a built-in minus sign,
    which encodes mean dipole moments of opposite sign for the two levels;
    lambda_g and lambda_e may have either sign and are mapped literally.
    ``allow_signed`` is accepted and ignored, as ``perfbench/reference.py``
    still passes it.
    """

    omega: float
    omega0: float
    lambda_g: float = 0.0
    lambda_e: float = 0.0
    lambda_eg: float = 0.0
    allow_signed: InitVar[bool] = True

    def __post_init__(self, _allow_signed):
        for name in ("omega", "omega0", "lambda_g", "lambda_e", "lambda_eg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")


def build_full(params: ModelParams, space: FockSpace) -> np.ndarray:
    """Full Hamiltonian on the 2 n_max product space (read-only float64),
    assembled literally on the blocks of :class:`FockSpace`, so that each
    diagonal block is its displaced ladder entrywise exactly:

    down, down: omega (a_dag a + 1/2) - omega0/2 - lambda_g (a_dag + a)
    up, up:     omega (a_dag a + 1/2) + omega0/2 + lambda_e (a_dag + a)
    off-diagonal: lambda_eg (a_dag + a)

    a_dag + a is written as its two bands, through strided views of H: beside
    H, the one n_max x n_max-sized array allocated, it takes O(n_max) vectors.
    """
    n_max, dn, up = space.n_max, space.down, space.up
    h = np.zeros((space.dim, space.dim))
    ho = params.omega * (np.arange(n_max) + 0.5)
    np.fill_diagonal(h, np.concatenate([ho - 0.5 * params.omega0, ho + 0.5 * params.omega0]))
    root = np.sqrt(np.arange(1.0, n_max))
    # 0.0 - lambda_g: a zero lambda_g writes +0.0, not -0.0, as H's zeros are
    for rows, cols, weight in ((dn, dn, 0.0 - params.lambda_g), (up, up, params.lambda_e),
                               (dn, up, params.lambda_eg), (up, dn, params.lambda_eg)):
        for band in (h[rows, cols][:, 1:], h[rows, cols][1:]):  # strided views of H
            np.fill_diagonal(band, weight * root)
    h.setflags(write=False)
    return h


def ladder_energies(params: ModelParams, n) -> tuple:
    """Closed-form energies (down, up) of level n of the two displaced
    ladders; an integer array ``n`` gives two arrays.

    down: -omega0/2 + omega (n + 1/2) - lambda_g**2 / omega
    up:   omega0/2 + omega (n + 1/2) - lambda_e**2 / omega
    """
    if np.any(np.asarray(n) < 0):
        raise ValueError(f"level index must be >= 0, got {n}")
    base = params.omega * (n + 0.5)
    return (
        base - 0.5 * params.omega0 - params.lambda_g**2 / params.omega,
        base + 0.5 * params.omega0 - params.lambda_e**2 / params.omega,
    )
