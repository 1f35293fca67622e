"""Time evolution and observables.

States are complex vectors on the :class:`~mprabi.fockmath.FockSpace` product
basis and Hamiltonians real arrays, both plain numpy.  Two routes propagate:

* :func:`evolve_numeric` integrates i d|psi>/dt = H |psi> (hbar = 1) with the
  classic fourth-order Runge-Kutta scheme on the full Hamiltonian.  H does
  not depend on time, so the RK4 step is diagonal in the eigenbasis of H and
  its powers are taken there in closed form.  No renormalization is ever
  applied; the drift of the squared norm is the integrator's accuracy meter
  and aborts the run when it exceeds a bound.

* :func:`evolve_rwa` expands the initial state over the secular eigenbasis
  (unmixed low manifolds plus the dressed pairs), as :func:`project_secular`
  projects it, and attaches the analytic phase factors, which is exact within
  the rotating-wave treatment.  At ``order=2`` the secular energies carry the
  second-order level shifts of :func:`mprabi.rwa.level_shifts`.

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
from .model import ModelParams
from .rwa import ResonanceSpec, _secular_spectrum, _warn_strong, coupling_element

EXCITED_FOCK = "excited-fock"
GROUND_COHERENT = "ground-coherent"
#: initial-state kinds of :class:`InitialStateSpec`
KINDS = (EXCITED_FOCK, GROUND_COHERENT)

#: squared-norm deviation at which a numeric run aborts
NORM_TOL = 1e-6
#: initial weight the secular basis may miss before its projection fails
COMPLETENESS_TOL = 1e-6
#: weight the closed-form inversion series leave out
WEIGHT_TOL = 1e-10
#: combined population of the top five photon levels that flags a run invalid
TRUNCATION_TOL = 1e-8
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


@dataclass(frozen=True)
class InitialStateSpec:
    """Declarative initial condition.

    kind "excited-fock": spin up, bare Fock state with ``n_photons`` quanta.
    kind "ground-coherent": spin down, coherent field of mean photon number
    ``mean_photons``."""

    kind: str
    n_photons: int = 0
    mean_photons: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n_photons < 0:
            raise ValueError("n_photons must be >= 0")
        if not (self.mean_photons >= 0.0):
            raise ValueError("mean_photons must be >= 0")


@dataclass
class Trajectory:
    """Sampled time series of one propagation run.

    ``norm`` stores the squared norm (total probability), so each row of
    ``photon_dist`` sums to the matching ``norm`` entry identically.
    ``truncation_ok`` is cleared when the top five photon levels ever hold
    more than the truncation tolerance.  ``final_state`` is the propagated
    state at the last sample, handy for chaining runs or convergence studies.
    """

    times: np.ndarray
    inversion: np.ndarray
    photon_dist: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    truncation_ok: bool = True
    final_state: np.ndarray | None = None

    def __len__(self) -> int:
        return self.times.size


def observables(psi: np.ndarray) -> tuple:
    """Population inversion W and photon distribution P of a state, or of
    each column of a (dim, k) block (W of shape (k,), P (n_max, k)).  The spin
    sums run in sequence (cumsum), so a column alone gives the same bits."""
    n_max = psi.shape[0] // 2
    down = np.abs(psi[:n_max]) ** 2
    up = np.abs(psi[n_max:]) ** 2
    return np.cumsum(up, axis=0)[-1] - np.cumsum(down, axis=0)[-1], down + up


def prepare_initial(spec: InitialStateSpec, params: ModelParams, space: FockSpace) -> np.ndarray:
    """Build the normalized initial complex amplitude vector for a scenario.

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
    else:
        nbar = spec.mean_photons
        if nbar + 5.0 * math.sqrt(nbar) > space.n_max:
            raise TruncationError(
                f"coherent state of mean {nbar} needs n_max > "
                f"{nbar + 5.0 * math.sqrt(nbar):.1f}, got {space.n_max}"
            )
        vec[space.block(SPIN_DOWN)] = displacement_matrix(-math.sqrt(nbar), space)[:, 0]
    return vec


def sample_steps(t_end: float, dt: float, sample_every: int) -> np.ndarray:
    """Steps at which a run of duration t_end samples: 0, every
    ``sample_every`` steps, and the last of round(t_end / dt) steps."""
    n_steps = max(1, int(round(t_end / dt)))
    steps = np.arange(0, n_steps + 1, sample_every)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _expand(basis, coeffs, factor, traj: Trajectory):
    """Fill traj's W, P, norm and final state from psi = basis @ (coeffs * factor).

    ``factor(rows)`` gives each column's factor at the samples ``rows`` as a
    (columns, samples) array.  The samples go in blocks of at most
    :data:`_RWA_BLOCK`, so working memory does not depend on their count;
    each block is yielded as ``(rows, top)`` once its rows are filled, with
    ``top`` the population of the top five photon levels at those samples.
    """
    n_t = traj.times.size
    # A lone last sample would make a one-column block, which BLAS and numpy's
    # reductions treat as a vector and round differently, so it joins the
    # block before it.
    for start in range(0, max(n_t - 1, 1), _RWA_BLOCK):
        stop = start + _RWA_BLOCK
        if stop >= n_t - 1:
            stop = n_t
        rows = slice(start, stop)
        psi_t = basis @ (coeffs[:, None] * factor(rows))  # (dim, block)
        traj.inversion[rows], block = observables(psi_t)
        traj.photon_dist[rows] = block.T
        traj.norm[rows] = np.sum(block, axis=0)
        yield rows, np.sum(traj.photon_dist[rows, -5:], axis=1)
    traj.final_state = psi_t[:, -1].copy()


def _rk4_log_gain(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|r| and arg r of the RK4 step factor r = R(-i x), x = dt E.

    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and |R(-i x)|^2 = 1 - x^6/72 + x^8/576
    exactly, so r^k = exp(k (log|r| + i arg r)) never rounds r itself.
    """
    log_mod = 0.5 * np.log1p(-(x**6) / 72.0 + x**8 / 576.0)
    phase = np.arctan2(-(x - x**3 / 6.0), 1.0 - x**2 / 2.0 + x**4 / 24.0)
    return log_mod, phase


def _step_hint(weights, energies, t_end, dt, unit, label) -> str:
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
            if abs(final - 1.0) <= NORM_TOL:
                return f"a step of dt/2^{m} = {printed:.6g}{label} keeps it within bound"
    return "no step down to dt/2^59 keeps it within bound"


def evolve_numeric(
    h: np.ndarray,
    psi0: np.ndarray,
    t_end: float,
    dt: float,
    sample_every: int = 1,
    *,
    period: float | None = None,
) -> Trajectory:
    """Integrate i d psi/dt = h psi with classic RK4 from ``psi0`` at t = 0 for
    a duration t_end; ``h`` is real symmetric of dimension 2 n_max.

    One RK4 step multiplies the amplitude on eigenvector j of H by
    r_j = R(-i dt E_j) (see :func:`_rk4_log_gain`).  With E, V from one
    ``eigh`` of the real H and c = V^T psi0, the state after k steps is
    V (c * r^k): the stepwise RK4 trajectory up to rounding, at a cost set by
    the sample count alone.  The energy is sum_j |c_j|^2 |r_j|^(2k) E_j.

    Observables are sampled at step 0, every ``sample_every`` steps, and at
    the final step.  The squared norm is never renormalized; if it deviates
    from 1 by more than :data:`NORM_TOL`, or is not finite, the run aborts
    with a hint naming a step dt/2^m that keeps it within bound.  The run is flagged
    invalid (``truncation_ok = False``) if the top five photon levels ever
    accumulate more than :data:`TRUNCATION_TOL` population, and the first such
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
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.shape[0],):
        raise ValueError("state and Hamiltonian dimensions disagree")
    if np.any(h.imag):
        raise ValueError("the Hamiltonian must be real symmetric")
    unit, label = (1.0, "") if period is None else (period, " periods")

    energies, vectors = np.linalg.eigh(h.real)
    coeffs = vectors.T @ psi0
    weights = np.abs(coeffs) ** 2
    log_mod, phase = _rk4_log_gain(dt * energies)
    log_r = log_mod + 1j * phase

    steps = sample_steps(t_end, dt, sample_every)
    times = steps * dt

    n_t, n_max = steps.size, h.shape[0] // 2
    traj = Trajectory(times, np.empty(n_t), np.empty((n_t, n_max)), np.empty(n_t), np.empty(n_t))

    def powers(rows):
        return np.exp(np.outer(log_r, steps[rows]))

    for rows, top in _expand(vectors.astype(complex), coeffs, powers, traj):
        drift = np.abs(traj.norm[rows] - 1.0)
        # written so that a NaN norm fails the check
        bad = np.flatnonzero(~(drift <= NORM_TOL))
        if bad.size:
            raise NormDriftError(
                f"|psi|^2 deviated from 1 by {drift[bad[0]]:.3e} at t = "
                f"{times[rows][bad[0]] / unit:.6g}{label} (bound {NORM_TOL:.1e}); "
                + _step_hint(weights, energies, t_end, dt, unit, label)
            )
        over = np.flatnonzero(~(top < TRUNCATION_TOL))
        if traj.truncation_ok and over.size:
            traj.truncation_ok = False
            warnings.warn(
                f"top five photon levels reached {top[over[0]]:.3e} "
                f"population at t = {times[rows][over[0]] / unit:.6g}{label}; raise n_max",
                IntegratorWarning,
                stacklevel=2,
            )
        traj.energy[rows] = np.exp(np.outer(steps[rows], 2.0 * log_mod)) @ (weights * energies)
    return traj


def _rwa_basis(
    params: ModelParams, spec: ResonanceSpec, space: FockSpace, order: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Secular eigenbasis as columns on the product space, with energies.

    Covers the unmixed manifolds N < n and the dressed pairs for
    n <= N <= n_max-1, all from one :func:`mprabi.rwa._secular_spectrum`:
    D(+lambda_g/omega)|N> and D(-lambda_e/omega)|N-n> are columns of its two
    displacement matrices, sliced to n_max levels.  Column n + 2(N - n) is
    the alpha = +1 state of manifold N, the next its alpha = -1 partner.
    The top n up-branch displaced states have no partner inside the
    truncation and are not representable (see :func:`project_secular`).  At
    ``order=2`` every energy carries its level shift.  Also returns V_N(n)
    for N = n .. n_max-1; emits no warning.
    """
    n, n_max = spec.n, space.n_max
    s = _secular_spectrum(params, n, n_max, order)
    basis = np.zeros((space.dim, n + 2 * (n_max - n)), dtype=complex)
    dn, up = space.block(SPIN_DOWN), space.block(SPIN_UP)
    basis[dn, :n] = s.d_down[:n_max, :n]
    basis[dn, n:] = (s.d_down[:n_max, n:n_max, None] * s.c_down).reshape(n_max, -1)
    basis[up, n:] = (s.d_up[:n_max, : n_max - n, None] * s.c_up).reshape(n_max, -1)
    return basis, np.concatenate([s.low, s.energy.ravel()]), s.v


def project_secular(params: ModelParams, spec: ResonanceSpec, psi0: np.ndarray, order: int):
    """The projection ``(basis, energies, v, coeffs)`` that :func:`evolve_rwa`
    expands: :func:`_rwa_basis` at ``order`` on the truncation of the flat
    vector ``psi0``, then psi0's coefficients on it.  Raises
    :class:`ProjectionError` when they hold less than ``1 - COMPLETENESS_TOL``
    of psi0's weight (truncation too tight, or the state leans on the top
    levels the basis cannot represent)."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim != 1 or psi0.size % 2:
        raise ValueError("psi0 must be a flat vector of even length")
    basis, energies, v = _rwa_basis(params, spec, FockSpace(psi0.size // 2), order)
    coeffs = basis.conj().T @ psi0
    captured = float(np.sum(np.abs(coeffs) ** 2))
    total = float(np.sum(np.abs(psi0) ** 2))
    if captured < total * (1.0 - COMPLETENESS_TOL):
        raise ProjectionError(
            f"secular basis captures only {captured / total:.8f} of the state; "
            "raise n_max or reconsider the initial state"
        )
    return basis, energies, v, coeffs


def evolve_rwa(
    params: ModelParams,
    spec: ResonanceSpec,
    projection: tuple,
    t_grid: np.ndarray,
) -> Trajectory:
    """Analytic secular evolution, on an explicit time grid, of the state
    that ``projection`` (from :func:`project_secular`) expands at t = 0.

    ``order=1`` is the paper's first-order secular treatment: the dressed
    pairs are split by 2|V_N(n)| around the bare ladder energies.  ``order=2``
    adds the second-order level shifts to every secular energy, so each pair
    is split by 2 sqrt(delta_eff**2/4 + V**2) and the curve keeps phase with
    exact propagation over several Rabi periods.  Both orders share the
    displaced Fock states; only the energies and the mixing within pairs differ.

    The energy series is the basis-weighted mean, which is constant by
    construction.  The manifolds whose |V_N(n)| is not small against omega
    are reported in one :class:`~mprabi.rwa.RWAValidityWarning` with the
    initial weight they hold.  The run is flagged invalid when the top five
    photon levels ever hold :data:`TRUNCATION_TOL` or more.

    The expansion runs in time blocks (:func:`_expand`); every value is
    bitwise the one a single expansion over the whole grid gives.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    basis, energies, v, coeffs = projection
    weights = np.abs(coeffs) ** 2
    n, n_max = spec.n, basis.shape[0] // 2
    _warn_strong(params, n, range(n, n_max), v, weights[n:].reshape(-1, 2).sum(axis=1))

    n_t = t_grid.size
    energy = np.full(n_t, float(np.real(np.sum(weights * energies))))
    traj = Trajectory(t_grid.copy(), np.empty(n_t), np.empty((n_t, n_max)), np.empty(n_t), energy)

    def phases(rows):
        return np.exp(-1j * np.outer(energies, t_grid[rows]))

    for _, top in _expand(basis, coeffs, phases, traj):
        traj.truncation_ok &= bool(np.max(top) < TRUNCATION_TOL)
    return traj


def _series_weights(first_arg: float):
    """Yield (N, weight) for weights I(N, 0, first_arg)^2 until the cumulative
    weight exceeds 1 - WEIGHT_TOL."""
    cum = 0.0
    n_photon = 0
    while cum < 1.0 - WEIGHT_TOL:
        if n_photon > 100_000:  # defensive; weights sum to 1 analytically
            raise RuntimeError("weight series failed to converge")
        w = laguerre_transition(n_photon, 0, first_arg) ** 2
        cum += w
        yield n_photon, w
        n_photon += 1


def inversion_fock(params: ModelParams, n: int, t):
    """Closed-form inversion W_n(t) for the initial state |up, vacuum> at exact
    n-photon resonance.

    W_n(t) = sum_N I(N, 0, (lambda_e/omega)**2)^2 cos(Omega_{N+n}(n) t).

    The series is truncated once the cumulative weight reaches
    ``1 - WEIGHT_TOL``.  ``t`` may be a scalar or an array.
    """
    if n < 1:
        raise ValueError(f"photon order must be >= 1, got {n}")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    e2 = (params.lambda_e / params.omega) ** 2
    for n_photon, w in _series_weights(e2):
        omega_r = 2.0 * abs(coupling_element(params, n_photon + n, n))
        out = out + w * np.cos(omega_r * t)
    return out if out.ndim else float(out)


def inversion_coherent(params: ModelParams, n: int, mean_photons: float, t):
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
    for n_photon, w in _series_weights(rho):
        if n_photon < n:
            continue
        omega_r = 2.0 * abs(coupling_element(params, n_photon, n))
        out = out + 2.0 * w * np.sin(0.5 * omega_r * t) ** 2
    return out if out.ndim else float(out)
