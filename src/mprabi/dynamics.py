"""Time evolution and observables.

States are complex vectors on the :class:`~mprabi.fockmath.FockSpace` product
basis and Hamiltonians real arrays, both plain numpy.  Two routes propagate:

* :func:`evolve_numeric` integrates i d|psi>/dt = H |psi> (hbar = 1) with the
  classic fourth-order Runge-Kutta scheme on the full Hamiltonian.  H does
  not depend on time, so the RK4 step is diagonal in the eigenbasis of H
  (see :func:`project_numeric`) and its powers are taken there in closed
  form.  No renormalization is ever applied; the drift of the squared norm
  is the integrator's accuracy meter and aborts the run when it exceeds a
  bound.

* :func:`evolve_rwa` expands the initial state over the secular eigenbasis
  (unmixed low manifolds plus the dressed pairs), as :func:`project_secular`
  projects it, and attaches the analytic phase factors, which is exact within
  the rotating-wave treatment.  At ``order=2`` the secular energies carry the
  second-order level shifts (see :mod:`mprabi.rwa`).

Both routes expand a :class:`Projection` of the start state, made before
any propagation (``mprabi validate`` runs the run's checks, these
projections included, without the propagation).  They sample on one grid
of :func:`sample_count` steps and expand over the real eigenbasis, each
column j times the factor exp(L_j x) at sample position x (r_j^k =
exp(k log r_j) for RK4, exp(-i E_j t) secular), in blocks of time samples
(:func:`_expand`, which returns the trajectory).
Columns whose initial weight is negligible are dropped before the
expansion, and every block takes its factors from one table of phases per
run.  One top-five rule flags either route's truncation.

The sampled observables are the population inversion W = <sigma_z>, the
photon-number distribution P_N summed over spin, the squared norm, and the
energy expectation value.  Closed-form inversion curves for the two standard
initial states are available as :func:`inversion_fock` and
:func:`inversion_coherent`.

A single trajectory is integrated sequentially; distinct trajectories are
independent and may run in parallel.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fockmath import FockSpace, _displaced_vacuum, _reserve, laguerre_transition
from .model import ModelParams
from .rwa import _couplings, _secular_spectrum, _warn_strong

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
#: photon levels at the top of the truncation that the truncation rule watches
TOP_LEVELS = 5
#: combined population of the top five photon levels that flags a run invalid
TRUNCATION_TOL = 1e-8
#: time samples per block of the eigenbasis expansion; bounds its temporaries
_RWA_BLOCK = 256
#: initial weight |c_j|^2 at or below which the expansion drops column j
_PRUNE_TOL = 1e-30
#: |dt E| past which x**8 in the RK4 step factor would leave the float range
_RK4_SCALE = 2.0**127
#: dim x dim float64 matrices the eigh of :func:`project_numeric` adds to H at its
#: peak (LAPACK's copy and workspace, the eigenvectors), rounded up: a fresh
#: process's resident set grows by 3.4-4.1 of them at dim 1200-5000
_EIGH_MATRICES = 5


class NormDriftError(RuntimeError):
    """Squared norm drifted past the configured bound during integration."""


class ProjectionError(RuntimeError):
    """The secular basis fails to represent the initial state."""


class TruncationError(ValueError):
    """The requested state does not fit in the truncated space."""


class IntegratorWarning(UserWarning):
    """Truncation advisories from either propagator."""


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
    ``truncation_ok`` is cleared by the top-five rule of both routes
    (:func:`_flag_truncation`).  ``final_state`` is the propagated
    state at the last sample, handy for chaining runs or convergence studies.
    ``pruned_weight`` is the initial weight w of the eigenbasis columns the
    expansion dropped (see :func:`_expand`); no W or P value moves by more
    than 2 sqrt(w) + w for it.
    """

    times: np.ndarray
    inversion: np.ndarray
    photon_dist: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    truncation_ok: bool = True
    final_state: np.ndarray | None = None
    pruned_weight: float = 0.0

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
    photon marginal is Poisson with mean ``mean_photons`` either way.  A
    vector past numpy's index range raises MemoryError, as one past memory does.
    """
    _reserve(2, space.dim)  # the complex vector's two float64 halves
    vec = np.zeros(space.dim, dtype=complex)
    if spec.kind == EXCITED_FOCK:
        if spec.n_photons >= space.n_max:
            raise TruncationError(
                f"Fock level {spec.n_photons} outside truncation 0..{space.n_max - 1}"
            )
        vec[space.up][spec.n_photons] = 1.0
    else:
        nbar = spec.mean_photons
        if nbar + 5.0 * math.sqrt(nbar) > space.n_max:
            raise TruncationError(
                f"mean_photons = {nbar} needs n_max > "
                f"{nbar + 5.0 * math.sqrt(nbar):.1f}, got n_max = {space.n_max}"
            )
        vec[space.down] = _displaced_vacuum(-math.sqrt(nbar), space.n_max)
    return vec


def sample_count(t_end: float, dt: float, sample_every: int) -> int:
    """Number of samples of a run of duration t_end: step 0, every
    ``sample_every`` steps, and the last of round(t_end / dt) steps.  A count
    no array can hold raises ValueError, as numpy would for such an array."""
    if not (dt > 0 and t_end > 0 and sample_every >= 1):
        raise ValueError(f"need dt, t_end > 0, sample_every >= 1: {dt}, {t_end}, {sample_every}")
    count = -(-max(1, int(round(t_end / dt))) // sample_every) + 1
    if count > np.iinfo(np.intp).max:
        raise ValueError("Maximum allowed size exceeded")
    return count


def sample_steps(t_end: float, dt: float, sample_every: int) -> np.ndarray:
    """The :func:`sample_count` steps at which a run samples, as int64."""
    steps = np.arange(sample_count(t_end, dt, sample_every), dtype=np.int64) * sample_every
    steps[-1] = max(1, int(round(t_end / dt)))
    return steps


def _expand(basis, coeffs, rates, energies, steps, unit, dt) -> Trajectory:
    """The trajectory of psi_i = basis @ (coeffs * exp(rates * x_i)),
    x_i = steps[i] * unit, at the times steps * dt: the expansion over
    eigenvectors ``basis`` of H with ``energies``, which fills W, P, norm,
    energy, the final state and the pruned weight.

    ``basis`` is real (float64).  Columns whose weight |c_j|^2 is at most
    :data:`_PRUNE_TOL` are dropped first (a NaN weight is kept); with w their
    total weight, ||psi - psi_pruned|| <= sqrt(w) wherever |exp(L_j x)| <= 1,
    so no W or P value moves by more than 2 sqrt(w) + w.  The samples go in
    blocks of at most :data:`_RWA_BLOCK`, so working memory does not depend
    on their count.  A block at x_0 takes its factors as exp(L x_0) times one
    table of phases over the first block's steps, built once per run: on the
    uniform :func:`sample_steps` grid every block's step offsets are a prefix
    of those, and only an off-grid final step takes c exp(L x) directly.  The
    product with the basis is one real GEMM on the float view of the complex
    factors.  The energy sum_j |f_j|^2 E_j of factors f = head * table,
    head = c exp(L x_0), is (|head|^2 E) @ |table|^2 over the kept columns.
    """
    weights = np.abs(coeffs) ** 2
    keep = ~(weights <= _PRUNE_TOL)
    n_t, n_max = steps.size, basis.shape[0] // 2
    traj = Trajectory(
        steps * dt, np.empty(n_t), np.empty((n_t, n_max)), np.empty(n_t), np.empty(n_t),
        pruned_weight=float(np.sum(weights[~keep])),
    )
    basis, coeffs, rates, energies = basis[:, keep], coeffs[keep], rates[keep], energies[keep]
    table = np.exp(np.outer(rates, steps[:_RWA_BLOCK] * unit))
    table_sq = np.abs(table) ** 2
    for start in range(0, n_t, _RWA_BLOCK):
        rows = slice(start, start + _RWA_BLOCK)
        width = min(_RWA_BLOCK, n_t - start)
        head = coeffs * np.exp(rates * (steps[start] * unit))
        factors = head[:, None] * table[:, :width]
        traj.energy[rows] = (np.abs(head) ** 2 * energies) @ table_sq[:, :width]
        if steps[start + width - 1] - steps[start] != steps[width - 1]:  # an off-grid final step
            factors[:, -1] = coeffs * np.exp(rates * (steps[-1] * unit))
            traj.energy[-1] = np.abs(factors[:, -1]) ** 2 @ energies
        psi_t = (basis @ factors.view(np.float64)).view(np.complex128)  # (dim, block)
        traj.inversion[rows], block = observables(psi_t)
        traj.photon_dist[rows] = block.T
        traj.norm[rows] = np.sum(block, axis=0)
    traj.final_state = psi_t[:, -1].copy()
    return traj


def _flag_truncation(traj: Trajectory, period: float) -> None:
    """The top-five rule of both routes: where the top five photon levels
    first hold :data:`TRUNCATION_TOL` or more (or NaN), clear ``truncation_ok``
    and warn once, giving the time in oscillator periods ``period``."""
    top = np.sum(traj.photon_dist[:, -TOP_LEVELS:], axis=1)
    over = np.flatnonzero(~(top < TRUNCATION_TOL))
    if over.size:
        traj.truncation_ok = False
        warnings.warn(
            f"top five photon levels reached {top[over[0]]:.3e} population at t = "
            f"{traj.times[over[0]] / period:.6g} periods; raise n_max", IntegratorWarning,
            stacklevel=3,
        )


def _rk4_log_gain(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|r| and arg r of the RK4 step factor r = R(-i x), x = dt E.

    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and |R(-i x)|^2 = 1 - x^6/72 + x^8/576
    exactly, so r^k = exp(k (log|r| + i arg r)) never rounds r itself.  Past
    |x| = :data:`_RK4_SCALE`, where x**8 would overflow, both come from the
    same polynomials divided by x**8 and x**4, in powers of y = 1/x, so a
    huge step gives a huge finite log|r| and not inf - inf.
    """
    big = np.abs(x) > _RK4_SCALE
    small = np.where(big, 0.0, x)
    log_mod = 0.5 * np.log1p(-(small**6) / 72.0 + small**8 / 576.0)
    phase = np.arctan2(-(small - small**3 / 6.0), 1.0 - small**2 / 2.0 + small**4 / 24.0)
    if np.any(big):
        y = 1.0 / x[big]
        log_mod[big] = -4.0 * np.log(np.abs(y)) + 0.5 * np.log(1.0 / 576.0 - y**2 / 72.0 + y**8)
        phase[big] = np.arctan2(y / 6.0 - y**3, 1.0 / 24.0 - y**2 / 2.0 + y**4)
    return log_mod, phase


def _step_hint(weights, energies, t_end, dt, period) -> str:
    """Name the first step dt/2^m, m >= 1, whose RK4 run keeps the norm in bound.

    While every |dt E_j| < sqrt(8), every |r_j| < 1, so the squared norm
    sum_j w_j |r_j|^(2k) only falls with k and its last value decides.  The
    step is checked as the hint prints it, in oscillator periods ``period``.
    """
    for m in range(1, 60):
        printed = float(f"{dt / period / 2**m:.6g}")
        step = printed * period
        x = step * energies
        if np.max(np.abs(x)) < math.sqrt(8.0):
            k = max(1, int(round(t_end / step)))
            final = weights @ np.exp(2.0 * k * _rk4_log_gain(x)[0])
            if abs(final - 1.0) <= NORM_TOL:
                return f"a step of dt/2^{m} = {printed:.6g} periods keeps it within bound"
    return "no step down to dt/2^59 keeps it within bound"


class Projection(NamedTuple):
    """A start state on a real eigenbasis, as :func:`project_numeric` and
    :func:`project_secular` project it."""

    basis: np.ndarray  # real columns on the product space
    energies: np.ndarray  # energy of each column
    coeffs: np.ndarray  # the state's coefficient on each column
    strong_weight: float  # weight on manifolds with |V_N(n)| >= 0.1 omega; 0 for numeric


def project_numeric(h: np.ndarray, psi0: np.ndarray) -> Projection:
    """The projection that :func:`evolve_numeric` expands: the eigenvectors
    and energies of the real symmetric ``h`` from one ``eigh``, and the flat
    vector psi0's coefficients on them, once the ``eigh``'s peak is reserved
    (:data:`_EIGH_MATRICES`).  ``strong_weight`` is 0, as the exact route has
    no secular validity bound."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.shape[0],):
        raise ValueError("state and Hamiltonian dimensions disagree")
    _reserve(_EIGH_MATRICES, *h.shape)
    if np.iscomplexobj(h) and np.any(h.imag):  # .imag of a real h would be a new zero array
        raise ValueError("the Hamiltonian must be real symmetric")
    energies, vectors = np.linalg.eigh(h.real)
    return Projection(vectors, energies, vectors.T @ psi0, 0.0)


def evolve_numeric(
    projection: Projection,
    t_end: float,
    dt: float,
    sample_every: int = 1,
    *,
    period: float,
) -> Trajectory:
    """Integrate i d psi/dt = H psi with classic RK4 for a duration t_end from
    the state that ``projection`` (from :func:`project_numeric`) expands at
    t = 0 on the eigenbasis of H.

    One RK4 step multiplies the amplitude on eigenvector j of H by
    r_j = R(-i dt E_j) (see :func:`_rk4_log_gain`).  With E, V and
    c = V^T psi0 from the projection, the state after k steps is
    V (c * r^k): the stepwise RK4 trajectory up to rounding, at a cost set by
    the sample count alone (see :func:`_expand`, which also drops the
    eigenvectors holding at most :data:`_PRUNE_TOL` of psi0 and records their
    weight as ``pruned_weight``).  The energy is sum_j |c_j|^2 |r_j|^(2k) E_j
    over the kept eigenvectors.

    Observables are sampled at step 0, every ``sample_every`` steps, and at
    the final step.  The squared norm is never renormalized; if it deviates
    from 1 by more than :data:`NORM_TOL`, or is not finite, the finished run
    aborts at the first such sample with a hint naming a step dt/2^m that
    keeps it within bound.  Only then does :func:`_flag_truncation`, the
    top-five rule of both routes, run.  Those messages give times and the
    hinted step in oscillator periods ``period`` (2 pi / omega in the units
    of t_end), as the CLI takes them.
    """
    steps = sample_steps(t_end, dt, sample_every)
    vectors, energies, coeffs, _ = projection
    log_mod, phase = _rk4_log_gain(dt * energies)

    traj = _expand(vectors, coeffs, log_mod + 1j * phase, energies, steps, 1.0, dt)
    drift = np.abs(traj.norm - 1.0)
    bad = np.flatnonzero(~(drift <= NORM_TOL))  # written so that a NaN norm fails the check
    if bad.size:
        worst = drift[bad[0]]
        how = f"deviated from 1 by {worst:.3e}" if np.isfinite(worst) else "is not finite"
        raise NormDriftError(
            f"|psi|^2 {how} at t = {traj.times[bad[0]] / period:.6g} periods "
            f"(bound {NORM_TOL:.1e}); "
            + _step_hint(np.abs(coeffs) ** 2, energies, t_end, dt, period)
        )
    _flag_truncation(traj, period)
    return traj


def project_secular(
    params: ModelParams, n: int, psi0: np.ndarray, order: int
) -> Projection:
    """The projection that :func:`evolve_rwa` expands: the basis that
    :func:`mprabi.rwa._secular_spectrum` solves at ``order`` on the
    truncation of the flat vector ``psi0`` (column n + 2(N - n) is the
    alpha = +1 state of manifold N, the next its alpha = -1 partner), psi0's
    coefficients on it, and the weight they put on the manifolds whose
    |V_N(n)| is not small against omega.  Raises :class:`ProjectionError`
    when the coefficients hold less than ``1 - COMPLETENESS_TOL`` of psi0's
    weight (truncation too tight, or the state leans on the top levels the
    basis cannot represent).  When the strong-coupling weight reaches
    :data:`COMPLETENESS_TOL`, those manifolds are reported in one
    :class:`~mprabi.rwa.RWAValidityWarning` with the weight they hold."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim != 1 or psi0.size % 2:
        raise ValueError("psi0 must be a flat vector of even length")
    s = _secular_spectrum(params, n, psi0.size // 2, order)
    coeffs = s.basis.T @ psi0
    captured = float(np.sum(np.abs(coeffs) ** 2))
    total = float(np.sum(np.abs(psi0) ** 2))
    if not captured >= total * (1.0 - COMPLETENESS_TOL):  # written so that a NaN capture fails
        raise ProjectionError(
            f"secular basis captures only {captured / total:.8f} of the state; "
            "raise n_max or reconsider the initial state"
        )
    pairs = (np.abs(coeffs[n:]) ** 2).reshape(-1, 2).sum(axis=1)
    strong = _warn_strong(params, n, range(n, psi0.size // 2), s.v, pairs, COMPLETENESS_TOL)
    return Projection(s.basis, s.energies, coeffs, strong)


def evolve_rwa(
    projection: Projection,
    t_end: float,
    dt: float,
    sample_every: int = 1,
    *,
    period: float,
) -> Trajectory:
    """Analytic secular evolution of the state that ``projection`` (from
    :func:`project_secular`) expands at t = 0, sampled on the grid
    :func:`evolve_numeric` samples for the same ``t_end``, ``dt`` and
    ``sample_every``.

    ``order=1`` is the paper's first-order secular treatment: the dressed
    pairs are split by 2|V_N(n)| around the bare ladder energies.  ``order=2``
    adds the second-order level shifts to every secular energy, so each pair
    is split by 2 sqrt(delta_eff**2/4 + V**2) and the curve keeps phase with
    exact propagation over several Rabi periods.  Both orders share the
    displaced Fock states; only the energies and the mixing within pairs differ.

    The energy is sum_j |c_j|^2 E_j over the kept columns, constant up to
    rounding.  The top-five rule (:func:`_flag_truncation`) flags the run as
    it flags :func:`evolve_numeric`'s, in oscillator periods ``period``.

    The expansion runs in time blocks (:func:`_expand`): each block's phases
    are exp(-i E (k_0 dt)) at its first step k_0, the argument a single
    expansion over the whole grid would take there, times the run's one
    table of exp(-i E ((k - k_0) dt)) over step offsets.  Columns holding at
    most :data:`_PRUNE_TOL` of the initial weight are dropped, and the
    dropped weight w (``pruned_weight``) bounds the change of any W or P
    value by 2 sqrt(w) + w.
    """
    steps = sample_steps(t_end, dt, sample_every)
    basis, energies, coeffs, _ = projection
    traj = _expand(basis, coeffs, -1j * energies, energies, steps, dt, dt)
    _flag_truncation(traj, period)
    return traj


def _series_weights(first_arg: float):
    """Yield the weights I(N, 0, first_arg)^2, N = 0, 1, ..., until the
    cumulative weight exceeds 1 - WEIGHT_TOL."""
    cum = 0.0
    n_photon = 0
    while cum < 1.0 - WEIGHT_TOL:
        if n_photon > 100_000:  # defensive; weights sum to 1 analytically
            raise RuntimeError("weight series failed to converge")
        w = laguerre_transition(n_photon, 0, first_arg) ** 2
        cum += w
        yield w
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
    for w, v in zip(_series_weights(e2), _couplings(params, n, n)):  # V_{N+n}(n)
        omega_r = 2.0 * abs(v)
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
    for w, v in zip(itertools.islice(_series_weights(rho), n, None), _couplings(params, n, n)):
        omega_r = 2.0 * abs(v)
        out = out + 2.0 * w * np.sin(0.5 * omega_r * t) ** 2
    return out if out.ndim else float(out)
