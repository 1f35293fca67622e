"""Time evolution and observables.

Two propagation routes are provided:

* :func:`evolve_numeric` integrates i d|psi>/dt = H |psi> (hbar = 1) with the
  classic fourth-order Runge-Kutta scheme on the full Hamiltonian.  H does
  not depend on time, so the RK4 step is diagonal in the eigenbasis of H and
  its powers are taken there in closed form.  No renormalization is ever
  applied; the drift of the squared norm is the integrator's accuracy meter
  and aborts the run when it exceeds a bound.

* :func:`evolve_rwa` expands the initial state over the secular eigenbasis
  (unmixed low manifolds plus the dressed pairs) and attaches the analytic
  phase factors, which is exact within the rotating-wave treatment.  At
  ``order=2`` the secular energies carry the second-order level shifts of
  :func:`mprabi.rwa.level_shifts`.

Both routes expand over an eigenbasis, each column times a per-sample factor
(r_j^k for RK4, exp(-i E_j t) secular), in blocks of time samples.

The sampled observables are the population inversion W = <sigma_z>, the
photon-number distribution P_N summed over spin, the squared norm, and the
energy expectation value.  Closed-form inversion curves for the two standard
initial states are available as :func:`inversion_fock` and
:func:`inversion_coherent`.

A single trajectory is integrated sequentially; distinct trajectories are
independent and may run in parallel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fockmath import SPIN_DOWN, SPIN_UP, FockSpace, displacement_matrix, laguerre_transition
from .model import HamiltonianMatrix, ModelParams, displaced_energy
from .rwa import (
    ResonanceSpec,
    RWAValidityWarning,
    coupling_element,
    dressed_pair,
    level_shifts,
)

EXCITED_FOCK = "excited-fock"
GROUND_COHERENT = "ground-coherent"
CUSTOM_VECTOR = "custom-vector"
_KINDS = (EXCITED_FOCK, GROUND_COHERENT, CUSTOM_VECTOR)

#: squared-norm deviation at which a numeric run aborts
DEFAULT_NORM_TOL = 1e-6

#: combined population of the top five photon levels that flags a run invalid
DEFAULT_TRUNCATION_TOL = 1e-8

#: time samples per block of the eigenbasis expansion; bounds its temporaries
_RWA_BLOCK = 256


class NormDriftError(RuntimeError):
    """Squared norm drifted past the configured bound during integration."""


class ProjectionError(RuntimeError):
    """The secular basis fails to represent the initial state."""


class TruncationError(ValueError):
    """The requested state does not fit in the truncated space."""


class IntegratorWarning(UserWarning):
    """Truncation advisories from the numeric propagator."""


@dataclass
class QuantumState:
    """Complex amplitude vector on the two-level (x) Fock product basis.

    The squared norm is expected to stay within a configured distance of 1;
    the numeric propagator enforces that.
    """

    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1 or self.amplitudes.size % 2:
            raise ValueError("amplitudes must be a flat vector of even length")

    @property
    def n_max(self) -> int:
        return self.amplitudes.size // 2

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass(frozen=True)
class InitialStateSpec:
    """Declarative initial condition.

    kind "excited-fock": spin up, bare Fock state with ``n_photons`` quanta.
    kind "ground-coherent": spin down, coherent field of mean photon number
    ``mean_photons``.  kind "custom-vector": take ``vector`` (normalized copy).
    """

    kind: str
    n_photons: int = 0
    mean_photons: float = 0.0
    vector: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.n_photons < 0:
            raise ValueError("n_photons must be >= 0")
        if not (self.mean_photons >= 0.0):
            raise ValueError("mean_photons must be >= 0")
        if self.kind == CUSTOM_VECTOR and self.vector is None:
            raise ValueError("custom-vector needs an explicit vector")


@dataclass
class Trajectory:
    """Sampled time series of one propagation run.

    ``norm`` stores the squared norm (total probability), so each row of
    ``photon_dist`` sums to the matching ``norm`` entry identically.
    ``truncation_ok`` is cleared when the top five photon levels ever hold
    more than the truncation tolerance.  ``final_state`` carries the
    propagated amplitudes at the last sample, handy for chaining runs or
    convergence studies.
    """

    times: np.ndarray
    inversion: np.ndarray
    photon_dist: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    truncation_ok: bool = True
    final_state: "QuantumState | None" = None

    def __len__(self) -> int:
        return self.times.size


def observables(psi: QuantumState) -> tuple[float, np.ndarray]:
    """Population inversion W and photon distribution P of a state."""
    down = np.abs(psi.amplitudes[: psi.n_max]) ** 2
    up = np.abs(psi.amplitudes[psi.n_max :]) ** 2
    return float(np.sum(up) - np.sum(down)), down + up


def prepare_initial(spec: InitialStateSpec, params: ModelParams, space: FockSpace) -> QuantumState:
    """Build the normalized initial amplitude vector for a scenario.

    The coherent field state is the displaced vacuum D(-sqrt(mean_photons))|0>;
    the displacement points opposite to the down-branch well so the standard
    weight argument (sqrt(mean_photons) + lambda_g/omega)**2 applies, and the
    photon marginal is Poisson with mean ``mean_photons`` either way.
    """
    vec = np.zeros(space.dim, dtype=complex)
    if spec.kind == EXCITED_FOCK:
        if spec.n_photons >= space.n_max:
            raise TruncationError(
                f"Fock level {spec.n_photons} outside truncation 0..{space.n_max - 1}"
            )
        vec[space.index(SPIN_UP, spec.n_photons)] = 1.0
    elif spec.kind == GROUND_COHERENT:
        nbar = spec.mean_photons
        if nbar + 5.0 * math.sqrt(nbar) > space.n_max:
            raise TruncationError(
                f"coherent state of mean {nbar} needs n_max > "
                f"{nbar + 5.0 * math.sqrt(nbar):.1f}, got {space.n_max}"
            )
        vec[space.block(SPIN_DOWN)] = displacement_matrix(-math.sqrt(nbar), space)[:, 0]
    else:
        given = np.asarray(spec.vector, dtype=complex)
        if given.shape != (space.dim,):
            raise ValueError(f"custom vector must have length {space.dim}, got {given.shape}")
        nrm = np.linalg.norm(given)
        if nrm == 0.0:
            raise ValueError("custom vector must be nonzero")
        vec = given / nrm
    return QuantumState(vec, time=0.0)


def sample_steps(t_end: float, dt: float, sample_every: int) -> np.ndarray:
    """Steps at which a run of duration t_end samples: 0, every
    ``sample_every`` steps, and the last of round(t_end / dt) steps."""
    n_steps = max(1, int(round(t_end / dt)))
    steps = np.arange(0, n_steps + 1, sample_every)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _expand(basis, coeffs, factor, traj: Trajectory):
    """Fill traj's W, P and norm with the states psi = basis @ (coeffs * factor).

    ``factor(rows)`` gives each column's factor at the samples ``rows`` as a
    (columns, samples) array.  The samples go in blocks of at most
    :data:`_RWA_BLOCK`, so working memory does not depend on their count;
    each block is yielded as ``(rows, states)`` once its rows are filled.
    """
    n_t, n_max = traj.photon_dist.shape
    # A lone last sample would make a one-column block, which BLAS and numpy's
    # reductions treat as a vector and round differently, so it joins the
    # block before it.
    for start in range(0, max(n_t - 1, 1), _RWA_BLOCK):
        stop = start + _RWA_BLOCK
        if stop >= n_t - 1:
            stop = n_t
        rows = slice(start, stop)
        psi_t = basis @ (coeffs[:, None] * factor(rows))  # (dim, block)
        down = np.abs(psi_t[:n_max, :]) ** 2
        up = np.abs(psi_t[n_max:, :]) ** 2
        block = down + up
        traj.photon_dist[rows] = block.T
        traj.inversion[rows] = np.sum(up, axis=0) - np.sum(down, axis=0)
        traj.norm[rows] = np.sum(block, axis=0)
        yield rows, psi_t


def _rk4_log_gain(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|r| and arg r of the RK4 step factor r = R(-i x), x = dt E.

    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and |R(-i x)|^2 = 1 - x^6/72 + x^8/576
    exactly, so r^k = exp(k (log|r| + i arg r)) never rounds r itself.
    """
    log_mod = 0.5 * np.log1p(-(x**6) / 72.0 + x**8 / 576.0)
    phase = np.arctan2(-(x - x**3 / 6.0), 1.0 - x**2 / 2.0 + x**4 / 24.0)
    return log_mod, phase


def _step_hint(weights, energies, t_end, dt, norm_tol, unit, label) -> str:
    """Name the first step dt/2^m, m >= 1, whose RK4 run keeps the norm in bound.

    While every |dt E_j| < sqrt(8), every |r_j| < 1, so the squared norm
    sum_j w_j |r_j|^(2k) only falls with k and its last value decides.  The
    step is checked as the hint prints it, in multiples of ``unit``, whose
    name ``label`` follows the number.
    """
    for m in range(1, 60):
        printed = float(f"{dt / unit / 2**m:.6g}")
        step = printed * unit
        x = step * energies
        if np.max(np.abs(x)) < math.sqrt(8.0):
            k = max(1, int(round(t_end / step)))
            final = weights @ np.exp(2.0 * k * _rk4_log_gain(x)[0])
            if abs(final - 1.0) <= norm_tol:
                return f"a step of dt/2^{m} = {printed:.6g}{label} keeps it within bound"
    return "no step down to dt/2^59 keeps it within bound"


def evolve_numeric(
    H: HamiltonianMatrix,
    psi0: QuantumState,
    t_end: float,
    dt: float,
    sample_every: int = 1,
    *,
    norm_tol: float = DEFAULT_NORM_TOL,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
    period: float | None = None,
) -> Trajectory:
    """Integrate the Schroedinger equation with classic RK4 for a duration t_end.

    One RK4 step multiplies the amplitude on eigenvector j of H by
    r_j = R(-i dt E_j) (see :func:`_rk4_log_gain`).  With E, V from one
    ``eigh`` of the real H and c = V^T psi0, the state after k steps is
    V (c * r^k): the stepwise RK4 trajectory up to rounding, at a cost set by
    the sample count alone.  The energy is sum_j |c_j|^2 |r_j|^(2k) E_j.

    Observables are sampled at step 0, every ``sample_every`` steps, and at
    the final step.  The squared norm is never renormalized; if it deviates
    from 1 by more than ``norm_tol``, or is not finite, the run aborts with a
    hint naming a step dt/2^m that keeps it within bound.  The run is flagged
    invalid (``truncation_ok = False``) if the top five photon levels ever
    accumulate more than ``truncation_tol`` population, and the first such
    sample is reported in one :class:`IntegratorWarning`.  Those messages
    give times and the hinted step in units of ``period`` when it is given
    (oscillator periods, as the CLI takes them), else in the units of t_end.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_end <= 0:
        raise ValueError(f"t_end must be > 0, got {t_end}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    h = H.matrix
    if psi0.amplitudes.size != h.shape[0]:
        raise ValueError("state and Hamiltonian dimensions disagree")
    if np.any(h.imag):
        raise ValueError("the Hamiltonian must be real symmetric")
    unit, label = (1.0, "") if period is None else (period, " periods")

    energies, vectors = np.linalg.eigh(h.real)
    coeffs = vectors.T @ psi0.amplitudes
    weights = np.abs(coeffs) ** 2
    log_mod, phase = _rk4_log_gain(dt * energies)
    log_r = log_mod + 1j * phase

    steps = sample_steps(t_end, dt, sample_every)
    times = psi0.time + steps * dt

    n_t, n_max = steps.size, H.space.n_max
    traj = Trajectory(times, np.empty(n_t), np.empty((n_t, n_max)), np.empty(n_t), np.empty(n_t))

    def powers(rows):
        return np.exp(np.outer(log_r, steps[rows]))

    for rows, psi_t in _expand(vectors.astype(complex), coeffs, powers, traj):
        drift = np.abs(traj.norm[rows] - 1.0)
        # written so that a NaN norm fails the check
        bad = np.flatnonzero(~(drift <= norm_tol))
        if bad.size:
            raise NormDriftError(
                f"|psi|^2 deviated from 1 by {drift[bad[0]]:.3e} at t = "
                f"{times[rows][bad[0]] / unit:.6g}{label} (bound {norm_tol:.1e}); "
                + _step_hint(weights, energies, t_end, dt, norm_tol, unit, label)
            )
        top = np.sum(traj.photon_dist[rows, -5:], axis=1)
        over = np.flatnonzero(~(top < truncation_tol))
        if traj.truncation_ok and over.size:
            traj.truncation_ok = False
            warnings.warn(
                f"top five photon levels reached {top[over[0]]:.3e} "
                f"population at t = {times[rows][over[0]] / unit:.6g}{label}; raise n_max",
                IntegratorWarning,
                stacklevel=2,
            )
        traj.energy[rows] = np.exp(np.outer(steps[rows], 2.0 * log_mod)) @ (weights * energies)
    traj.final_state = QuantumState(psi_t[:, -1].copy(), time=float(times[-1]))
    return traj


def _rwa_basis(
    params: ModelParams, spec: ResonanceSpec, space: FockSpace, order: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Secular eigenbasis as columns on the product space, with energies.

    Covers the unmixed manifolds N < n and the dressed pairs for
    n <= N <= n_max-1.  Every displaced Fock state is a column of one of two
    displacement matrices: D(+lambda_g/omega)|N> on the down ladder and
    D(-lambda_e/omega)|N-n> on the up ladder.  The top n up-branch displaced
    states have no manifold partner inside the truncation and are not
    representable; initial states must not lean on them (checked by the
    caller).  At ``order=2`` the level shifts of all n_max manifolds come from
    one :func:`level_shifts` call and shift the unmixed manifolds as well as
    the dressed pairs.  The per-manifold :class:`RWAValidityWarning` of each
    coupling that is not small against omega is folded into one warning
    with their count, their N range and the largest |V|/omega.
    """
    n = spec.n
    n_max = space.n_max
    dn = space.block(SPIN_DOWN)
    up = space.block(SPIN_UP)

    down_vecs = displacement_matrix(params.lambda_g / params.omega, space)
    up_vecs = displacement_matrix(-params.lambda_e / params.omega, space)

    n_states = n + 2 * (n_max - n)
    basis = np.zeros((space.dim, n_states), dtype=complex)
    energies = np.zeros(n_states)

    shifts = level_shifts(params, n, n_max) if order == 2 else None
    # the unmixed manifolds N < n, as in low_manifold_states
    basis[dn, :n] = down_vecs[:, :n]
    for n_photon in range(n):
        energies[n_photon] = displaced_energy(params, SPIN_DOWN, n_photon)
        if shifts is not None:
            energies[n_photon] += shifts.down[n_photon]
    col = n
    strong = {}  # manifold -> |V|/omega of those not small against omega
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        for n_manifold in range(n, n_max):
            seen = len(log)
            pair = dressed_pair(params, spec, n_manifold, order=order, shifts=shifts)
            if any(issubclass(w.category, RWAValidityWarning) for w in log[seen:]):
                # the 2x2 block's off-diagonal V is (E+ - E-) c_down c_up of
                # its + state
                plus, minus = pair
                v = (plus.energy - minus.energy) * plus.c_down * plus.c_up
                strong[n_manifold] = abs(v) / params.omega
            for state in pair:
                basis[dn, col] = state.c_down * down_vecs[:, n_manifold]
                basis[up, col] = state.c_up * up_vecs[:, n_manifold - n]
                energies[col] = state.energy
                col += 1
    for w in log:
        if not issubclass(w.category, RWAValidityWarning):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if strong:
        warnings.warn(
            f"{len(strong)} manifolds N = {min(strong)}..{max(strong)} have "
            f"|V_N({n})|/omega up to {max(strong.values()):.3g}, not small; "
            "secular results there are unreliable",
            RWAValidityWarning,
            stacklevel=3,
        )
    return basis, energies


def evolve_rwa(
    params: ModelParams,
    spec: ResonanceSpec,
    psi0: QuantumState,
    t_grid: np.ndarray,
    *,
    order: int = 1,
    completeness_tol: float = 1e-6,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> Trajectory:
    """Analytic secular evolution sampled on an explicit time grid.

    ``order=1`` is the paper's first-order secular treatment: the dressed
    pairs are split by 2|V_N(n)| around the bare ladder energies.  ``order=2``
    adds the second-order level shifts to every secular energy, so each pair
    is split by 2 sqrt(delta_eff**2/4 + V**2); this is the order at which the
    secular curve keeps phase with exact propagation over several Rabi
    periods.  Both orders share the displaced Fock states; only the secular
    energies and the mixing within each pair differ.

    The initial state is projected on the secular eigenbasis; a
    :class:`ProjectionError` is raised when the captured weight falls below
    ``1 - completeness_tol`` (truncation too tight, or the state leans on the
    few top-of-space levels the secular basis cannot represent).  The energy
    series is the basis-weighted mean, which is constant by construction.

    The expansion runs in time blocks (:func:`_expand`); every value is
    bitwise the one a single expansion over the whole grid gives.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    space = FockSpace(psi0.n_max)
    basis, energies = _rwa_basis(params, spec, space, order)

    coeffs = basis.conj().T @ psi0.amplitudes
    captured = float(np.sum(np.abs(coeffs) ** 2))
    total = psi0.norm_sq()
    if captured < total * (1.0 - completeness_tol):
        raise ProjectionError(
            f"secular basis captures only {captured / total:.8f} of the state; "
            "raise n_max or reconsider the initial state"
        )

    n_t, n_max = t_grid.size, space.n_max
    energy = np.full(n_t, float(np.real(np.sum(np.abs(coeffs) ** 2 * energies))))
    traj = Trajectory(t_grid.copy(), np.empty(n_t), np.empty((n_t, n_max)), np.empty(n_t), energy)

    def phases(rows):
        return np.exp(-1j * np.outer(energies, t_grid[rows] - psi0.time))

    for rows, psi_t in _expand(basis, coeffs, phases, traj):
        top = np.sum(traj.photon_dist[rows, -5:], axis=1)
        traj.truncation_ok &= bool(np.max(top) < truncation_tol)
    traj.final_state = QuantumState(psi_t[:, -1].copy(), time=float(t_grid[-1]))
    return traj


def _series_weights(first_arg: float, weight_tol: float):
    """Yield (N, weight) for weights I(N, 0, first_arg)^2 until the cumulative
    weight exceeds 1 - weight_tol."""
    cum = 0.0
    n_photon = 0
    while cum < 1.0 - weight_tol:
        if n_photon > 100_000:  # defensive; weights sum to 1 analytically
            raise RuntimeError("weight series failed to converge")
        w = laguerre_transition(n_photon, 0, first_arg) ** 2
        cum += w
        yield n_photon, w
        n_photon += 1


def inversion_fock(params: ModelParams, n: int, t, *, weight_tol: float = 1e-10):
    """Closed-form inversion W_n(t) for the initial state |up, vacuum> at exact
    n-photon resonance.

    W_n(t) = sum_N I(N, 0, (lambda_e/omega)**2)^2 cos(Omega_{N+n}(n) t).

    The series is truncated once the cumulative weight reaches
    ``1 - weight_tol``.  ``t`` may be a scalar or an array.
    """
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    e2 = (params.lambda_e / params.omega) ** 2
    for n_photon, w in _series_weights(e2, weight_tol):
        omega_r = 2.0 * abs(coupling_element(params, n_photon + n, n))
        out = out + w * np.cos(omega_r * t)
    return out if out.ndim else float(out)


def inversion_coherent(
    params: ModelParams, n: int, mean_photons: float, t, *, weight_tol: float = 1e-10
):
    """Closed-form inversion for |down, coherent(mean_photons)> at exact
    n-photon resonance.

    W_n(t) = -1 + 2 sum_{N >= n} I(N, 0, rho)^2 sin^2(Omega_N(n) t / 2)

    with rho = (sqrt(mean_photons) + lambda_g/omega)**2, matching the
    coherent-state convention of :func:`prepare_initial`.  The constant -1
    already carries the time-independent weight of the unmixed manifolds
    N < n, so the sum starts at N = n with no extra offset.
    """
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    if not (mean_photons >= 0.0):
        raise ValueError("mean_photons must be >= 0")
    t = np.asarray(t, dtype=float)
    out = np.full_like(t, -1.0)
    rho = (math.sqrt(mean_photons) + params.lambda_g / params.omega) ** 2
    for n_photon, w in _series_weights(rho, weight_tol):
        if n_photon < n:
            continue
        omega_r = 2.0 * abs(coupling_element(params, n_photon, n))
        out = out + 2.0 * w * np.sin(0.5 * omega_r * t) ** 2
    return out if out.ndim else float(out)
