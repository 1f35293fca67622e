"""Reference trajectories and the check every benchmarked run must pass.

Numeric workloads are compared against exact propagation: the Hamiltonian is
assembled here from the model formula (not through ``mprabi.model``), the
initial state from its closed form, and the state at each sample time from
``numpy.linalg.eigh`` of the full H.  Secular workloads are compared against
the closed-form inversion curve of ``mprabi.dynamics``, a route that shares
no code with the dressed-basis propagator beyond the coupling element.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from workloads import sample_steps

#: largest |W - W_ref| a run may show; measured errors are below 1e-9
W_TOL = 1e-7

#: largest |norm - 1| a run may show (the bound at which RK4 runs abort)
NORM_TOL = 1e-6


@dataclass
class Trajectory:
    """The columns of a trajectory CSV the check reads."""

    t_periods: np.ndarray
    w: np.ndarray
    norm: np.ndarray
    n_columns: int
    csv_bytes: int
    sha256: str

    @classmethod
    def read(cls, path) -> "Trajectory":
        with open(path, "rb") as handle:
            raw = handle.read()
        lines = raw.decode("ascii").splitlines()
        cols = np.array([line.split(",", 3)[:3] for line in lines[1:]], dtype=float)
        cols = cols.reshape(-1, 3)
        return cls(
            t_periods=cols[:, 0],
            w=cols[:, 1],
            norm=cols[:, 2],
            n_columns=lines[0].count(",") + 1,
            csv_bytes=len(raw),
            sha256=hashlib.sha256(raw).hexdigest(),
        )


def _couplings(cfg: dict) -> dict:
    """Absolute model parameters, resolved as ``mprabi run`` resolves a config
    that sets the resonance order ``n`` (as every shipped config does)."""
    omega = cfg.get("omega", 1.0)
    lam_g = cfg.get("lambda_g", 0.0) * omega
    lam_e = cfg.get("lambda_e", 0.0) * omega
    return dict(
        omega=omega,
        omega0=cfg["n"] * omega - (lam_g**2 - lam_e**2) / omega,
        lambda_g=lam_g,
        lambda_e=lam_e,
        lambda_eg=cfg["lambda_eg"] * omega,
    )


def hamiltonian(cfg: dict) -> np.ndarray:
    """H on the product basis (down block first), straight from the model."""
    p = _couplings(cfg)
    n_max = cfg.get("n_max", 200)
    ladder = p["omega"] * (np.arange(n_max) + 0.5)
    x = np.diag(np.sqrt(np.arange(1.0, n_max)), 1)
    x = x + x.T
    h = np.zeros((2 * n_max, 2 * n_max))
    h[:n_max, :n_max] = np.diag(ladder - 0.5 * p["omega0"]) - p["lambda_g"] * x
    h[n_max:, n_max:] = np.diag(ladder + 0.5 * p["omega0"]) + p["lambda_e"] * x
    h[:n_max, n_max:] = p["lambda_eg"] * x
    h[n_max:, :n_max] = p["lambda_eg"] * x
    return h


def initial_state(cfg: dict) -> np.ndarray:
    """|up, n_photons> or |down> times the Poisson amplitudes of D(-sqrt(nbar))|0>."""
    n_max = cfg.get("n_max", 200)
    psi = np.zeros(2 * n_max)
    if cfg.get("initial_kind", "excited-fock") == "excited-fock":
        psi[n_max + cfg.get("n_photons", 0)] = 1.0
        return psi
    nbar = cfg["mean_photons"]
    levels = np.arange(n_max)
    log_amp = -0.5 * nbar + 0.5 * levels * math.log(nbar)
    log_amp -= 0.5 * np.array([math.lgamma(k + 1.0) for k in levels])
    psi[:n_max] = np.exp(log_amp) * np.where(levels % 2, -1.0, 1.0)
    return psi


def exact_inversion(cfg: dict, t_periods: np.ndarray) -> np.ndarray:
    """W(t) from eigh-based propagation of the full Hamiltonian."""
    n_max = cfg.get("n_max", 200)
    energies, vectors = np.linalg.eigh(hamiltonian(cfg))
    coeffs = vectors.T @ initial_state(cfg)
    t = np.asarray(t_periods) * (2.0 * math.pi / cfg.get("omega", 1.0))
    psi_t = vectors @ (coeffs[:, None] * np.exp(-1j * np.outer(energies, t)))
    prob = np.abs(psi_t) ** 2
    return prob[n_max:].sum(axis=0) - prob[:n_max].sum(axis=0)


def closed_form_inversion(cfg: dict, t_periods: np.ndarray) -> np.ndarray:
    """W(t) of a coherent start from the closed-form secular curve of
    ``mprabi.dynamics``."""
    from mprabi.dynamics import inversion_coherent
    from mprabi.model import ModelParams

    params = ModelParams(allow_signed=True, **_couplings(cfg))
    t = np.asarray(t_periods) * (2.0 * math.pi / params.omega)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return inversion_coherent(params, cfg["n"], cfg["mean_photons"], t)


class Reference:
    """Expected sample times and W for one workload config."""

    def __init__(self, cfg: dict):
        self.n_max = cfg.get("n_max", 200)
        self.t_periods = np.array(sample_steps(cfg), dtype=float) * cfg["dt"]
        if cfg["propagators"] == ["rwa"]:
            self.w = closed_form_inversion(cfg, self.t_periods)
        else:
            self.w = exact_inversion(cfg, self.t_periods)

    def check(self, traj: Trajectory) -> tuple[list[str], float, float]:
        """Problems found in a trajectory, its max |W - W_ref| and max |norm - 1|."""
        problems = []
        if traj.n_columns != 4 + self.n_max:
            problems.append(f"{traj.n_columns} columns, expected {4 + self.n_max}")
        if traj.w.size != self.w.size:
            problems.append(f"{traj.w.size} samples, expected {self.w.size}")
            return problems, math.inf, math.inf
        t_err = float(np.max(np.abs(traj.t_periods - self.t_periods)))
        if t_err > 1e-9 * max(1.0, float(self.t_periods[-1])):
            problems.append(f"sample times off the step grid by {t_err:.3e} periods")
        w_err = float(np.max(np.abs(traj.w - self.w)))
        if not w_err <= W_TOL:
            problems.append(f"max |W - W_ref| = {w_err:.3e} exceeds {W_TOL:.0e}")
        drift = float(np.max(np.abs(traj.norm - 1.0)))
        if not drift <= NORM_TOL:
            problems.append(f"max |norm - 1| = {drift:.3e} exceeds {NORM_TOL:.0e}")
        return problems, w_err, drift
