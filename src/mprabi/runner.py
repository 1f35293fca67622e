"""Run orchestration and machine-readable outputs.

A scenario run resolves its parameters, integrates the requested propagators,
and emits a wide CSV per trajectory (see :mod:`mprabi.csvtext`) plus one JSON
manifest that echoes every resolved input, the derived resonance quantities,
and the validity flags, so a run is reconstructible from its outputs alone.
The config names the output files and :func:`resolve_outputs` places and
checks them; every file is written atomically.  The pipeline is free of
randomness: identical configs produce byte-identical CSVs at one BLAS build
and one BLAS thread count.  At another thread count the BLAS routines of the
numeric route (``eigh`` and the expansion's matrix products) round
differently, and its values move in their last digits (up to ~4e-12 in W).
The manifest's ``environment`` records what decides the bytes besides the
config (see :func:`_environment`), so two manifests say whether their CSVs
should match.

The manifest also records the run's ``status`` (``"ok"`` or ``"failed"``,
with the ``error`` text) and the ``timings`` of its stages.  Every ending of
a run after its plan writes it: a clean finish, failed validity checks, and
any exception in compute or emission (norm drift, a failed CSV write, memory
running out and an interrupt, SIGINT or SIGTERM, included), and an interrupt
while the manifest itself is written.
"""

from __future__ import annotations

import contextlib
import datetime
import functools
import json
import math
import os
import platform
import time
import warnings
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig
from .csvtext import _atomic_write, _usable_cpus, emit_csv
from .dynamics import (
    _EIGH_MATRICES,
    COMPLETENESS_TOL,
    NORM_TOL,
    TOP_LEVELS,
    InitialStateSpec,
    IntegratorWarning,
    Projection,
    ProjectionError,
    Trajectory,
    evolve_numeric,
    evolve_rwa,
    prepare_initial,
    project_numeric,
    project_secular,
    sample_count,
)
from .fockmath import FockSpace, _reserve
from .model import ModelParams, build_full
from .rwa import (
    RWAValidityWarning,
    _check_resonance,
    _padded_size,
    coupling_element,
    omega_eg,
    resonant_omega0,
    spectrum_records,
)

OUTPUT_DIR_ENV = "MPRABI_OUTPUT_DIR"
#: stages a run times into its manifest's ``timings``; ``plan`` is the plan
#: less its two projections, ``hamiltonian`` (H and its eigh) and ``secular_basis``
STAGES = ("plan", "hamiltonian", "secular_basis", "numeric", "rwa", "emit")
#: the manifest ``outputs`` key of each route's CSV, in the order routes run
_CSV_KEYS = {"numeric": "csv", "rwa": "rwa_csv"}
#: the environment variables that set the BLAS thread count, echoed where set
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the config keys the manifest echoes as they are
_CONFIG_RECORD = ("initial_kind", "n_photons", "mean_photons", "sample_every", "n_max", "order")
#: largest |lambda_eg| / omega a run or export takes.  Its square then spends at
#: most half the float range's exponent, and the other half is left for what
#: multiplies it: the order-2 shifts reach 40 lambda_eg**2 n / omega on n levels,
#: and the phases they drive grow with the run.  From ~1e153 the shifts, and from
#: ~1e308 H and V_N(n) themselves, leave the range as NaN or Infinity
_LAMBDA_EG_MAX = 2.0**256


class ValidityError(RuntimeError):
    """A finished run failed its numerical-validity checks."""


@contextlib.contextmanager
def _timed(timings: dict, stage: str):
    """Record the wall time of the ``with`` block as ``timings[stage]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = time.perf_counter() - start


@contextlib.contextmanager
def recorded_warnings():
    """Record, not show, every warning the ``with`` block raises; the list it
    yields then holds each distinct one as ``"<category>: <message>"``, sorted.
    The package's RWAValidityWarning and IntegratorWarning are always
    recorded, other categories as the filters in force allow.  A block that
    raises passes its warnings on to the enclosing filters first."""
    lines = []
    try:
        with warnings.catch_warnings(record=True) as log:
            for category in (RWAValidityWarning, IntegratorWarning):
                warnings.simplefilter("always", category)
            yield lines
    except BaseException:
        for w in log:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        raise
    finally:
        lines[:] = sorted({f"{w.category.__name__}: {w.message}" for w in log})


def _environment() -> dict:
    """What decides a CSV's bytes besides the config: the Python and numpy
    versions, the usable CPU count, which sets the BLAS thread count unless
    one of the thread variables is set, and those variables where set."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "usable_cpus": _usable_cpus(),
        "thread_env": {name: os.environ[name] for name in _THREAD_ENV if name in os.environ},
    }


def _params_record(params: ModelParams) -> dict:
    """The model parameters as the manifest and the spectrum export record them."""
    return {
        key: getattr(params, key) for key in ("omega", "omega0", "lambda_g", "lambda_e", "lambda_eg")
    }


def emit_spectrum(
    params: ModelParams,
    n: int,
    manifolds,
    path: str,
    *,
    order: int = 1,
) -> None:
    """Write the dressed-spectrum JSON export of some manifolds of the
    n-photon resonance at secular ``order``."""
    payload = {"params": _params_record(params), "omega_eg": omega_eg(params)}
    payload.update(spectrum_records(params, n, manifolds, order=order))
    with _atomic_write(path) as handle:
        handle.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def resolve_params(config: ScenarioConfig) -> tuple[ModelParams, int]:
    """Model parameters and the photon order n of the resonance a config implies.

    Signed diagonal couplings are mapped literally onto the Hamiltonian.  With
    ``n`` given, omega0 is placed exactly on the n-photon resonance; with an
    explicit omega0, n is the nearest integer to omega_eg / omega (at least 1).
    Warns about nothing: a detuning delta_n = omega_eg - n omega past the
    secular window is warned about where secular results are made (see
    :mod:`mprabi.rwa`).  Raises :class:`ConfigError`, naming the keys that
    set them, when the parameters or omega_eg / omega leave the float range,
    or |lambda_eg| passes :data:`_LAMBDA_EG_MAX`.
    """
    omega = config.omega
    try:
        if not abs(config.lambda_eg) <= _LAMBDA_EG_MAX:
            raise OverflowError(f"|lambda_eg| above 2**256 = {_LAMBDA_EG_MAX:.4g} omega drives "
                                "level shifts past the float range")
        lambda_g, lambda_e = config.lambda_g * omega, config.lambda_e * omega
        omega0 = config.omega0
        if config.n is not None:
            omega0 = resonant_omega0(config.n, omega=omega, lambda_g=lambda_g, lambda_e=lambda_e)
        params = ModelParams(
            omega=omega, omega0=omega0, lambda_g=lambda_g, lambda_e=lambda_e,
            lambda_eg=config.lambda_eg * omega,
        )
        n = config.n if config.n is not None else max(1, int(round(omega_eg(params) / omega)))
    except (ValueError, OverflowError) as exc:  # an infinity, a square past the range, lambda_eg
        keys = ("omega", "n", "omega0", "lambda_g", "lambda_e", "lambda_eg")
        given = ", ".join(f"'{k}' = {getattr(config, k)!r}" for k in keys if getattr(config, k))
        raise ConfigError([f"model outside the float range from {given}: {exc.args[-1]}"]) from exc
    return params, n


def resolve_outputs(config: ScenarioConfig, keys, output_dir: str | None) -> tuple[dict, list]:
    """The files that ``config.<key>_path`` names for ``keys``, each joined
    under output_dir, else $MPRABI_OUTPUT_DIR, else "." (an absolute path
    stands), and the problems that stop them being written: paths that are
    directories, then missing or unwritable directories, then shared files."""
    base = output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    paths = {key: os.path.join(base, getattr(config, f"{key}_path")) for key in keys}
    problems = [f"output path is a directory: {path}" for path in paths.values() if os.path.isdir(path)]
    for directory in dict.fromkeys(os.path.dirname(os.path.abspath(path)) for path in paths.values()):
        if not os.path.isdir(directory):
            problems.append(f"output directory does not exist: {directory}")
        elif not os.access(directory, os.W_OK):
            problems.append(f"output directory not writable: {directory}")
    files = {key: os.path.realpath(path) for key, path in paths.items()}
    for file in dict.fromkeys(files.values()):
        names = [f"'{key}_path'" for key in files if files[key] == file]
        if len(names) > 1:
            problems.append(f"keys {' and '.join(names)} resolve to the same file {file}")
    return paths, problems


class RunPlan(NamedTuple):
    """What a run settles before it propagates (see :func:`plan_run`)."""

    outputs: dict  # manifest "outputs": manifest, csv and rwa_csv paths
    params: ModelParams
    n: int  # photon order of the resonance
    period: float  # 2 pi / omega: the time unit of the config, the CSVs and the messages
    grid: tuple  # (t_end, dt, sample_every), the first two in units of 1/omega
    projections: dict[str, Projection]  # the start state's, per route run, in _CSV_KEYS order
    timings: dict[str, float]  # seconds of the projections made: hamiltonian, secular_basis


def plan_run(config: ScenarioConfig, output_dir: str | None = None) -> RunPlan:
    """Everything :func:`run_scenario` settles before any compute.

    Resolves the files the run writes (the manifest, plus one CSV per
    propagator) with :func:`resolve_outputs`, resolves the model parameters,
    settles the time grid and counts its samples (with no grid built) and
    prepares the initial state.  It keeps the state's projection for each
    route that runs, which the route's propagator then expands:
    :func:`~mprabi.dynamics.project_numeric` on the full Hamiltonian, which
    it assembles, and :func:`~mprabi.dynamics.project_secular`, which raises
    the strong-coupling warning.  Raises one :class:`ConfigError` with every
    unusable output path, a sample count, an n_max within the top levels the
    truncation rule watches, a state, H with its eigh, secular ladder or
    trajectories too large to allocate (each reserved before it is written),
    and a start state that does not fit the truncation or the secular basis
    (an order-2 basis off the resonance included).  The plan's ``timings``
    hold the time of each projection it made, as the stage ``hamiltonian``
    or ``secular_basis``.  ``mprabi validate`` runs this call, so it rejects
    what a run rejects before compute and shows the warnings a run records
    here.
    """
    timings = {}
    written = ["manifest"] + [key for route, key in _CSV_KEYS.items() if route in config.propagators]
    outputs, problems = resolve_outputs(config, written, output_dir)
    params, n = resolve_params(config)
    period = 2.0 * math.pi / params.omega
    grid = (config.t_end * period, config.dt * period, config.sample_every)
    samples = 0  # stays 0 when the count is the problem
    try:
        samples = sample_count(*grid)
    except (ValueError, OverflowError) as exc:
        problems.append(f"t_end / dt = {config.t_end / config.dt:.6g} steps is too many: {exc}")
    if config.n_max <= TOP_LEVELS:  # the top levels would hold every photon
        problems.append(
            f"n_max = {config.n_max} must exceed the top {TOP_LEVELS} photon levels that "
            "the truncation rule watches, or every run fails it"
        )
    initial = InitialStateSpec(config.initial_kind, config.n_photons, config.mean_photons)
    try:
        space = FockSpace(config.n_max)
        psi0 = prepare_initial(initial, params, space)
        projections = {}
        if "numeric" in config.propagators:
            with _timed(timings, "hamiltonian"):
                _reserve(1 + _EIGH_MATRICES, space.dim, space.dim)  # H and its eigh, unwritten
                projections["numeric"] = project_numeric(build_full(params, space), psi0)
        if "rwa" in config.propagators:
            with _timed(timings, "secular_basis"):
                projections["rwa"] = project_secular(params, n, psi0, config.order)
    except MemoryError as exc:
        raise ConfigError([*problems, f"n_max = {config.n_max} is too large: {exc}"]) from exc
    except (ValueError, ProjectionError) as exc:  # TruncationError is a ValueError
        raise ConfigError([*problems, str(exc)]) from exc
    try:  # the arrays the routes then hold at once
        _reserve(len(config.propagators), samples, config.n_max + 4)
    except MemoryError as exc:
        problems.append(
            f"t_end / dt / sample_every = {samples} samples x n_max = {config.n_max} "
            f"is too large: {exc}"
        )
    if problems:
        raise ConfigError(problems)
    return RunPlan(outputs, params, n, period, grid, projections, timings)


def plan_spectrum(config: ScenarioConfig, output_dir: str | None = None) -> tuple:
    """What ``mprabi spectrum`` settles before any compute, as the leading
    arguments of :func:`emit_spectrum`: the model parameters, the photon
    order n, the index array of the manifolds n .. manifold_max (n + 20 by
    default) and the resolved path of the export, checked writable, once
    :func:`~mprabi.rwa._padded_size` has reserved the solver's peak on the
    ladder the export pads past manifold_max, and, at ``order`` 2, once
    :func:`~mprabi.rwa._check_resonance` has found n the resonance of the
    model on that ladder.  One :class:`ConfigError` lists every problem."""
    params, n = resolve_params(config)
    paths, problems = resolve_outputs(config, ["spectrum"], output_dir)
    manifold_max = config.manifold_max or n + 20
    if manifold_max < n:
        problems.append(f"manifold_max = {manifold_max} below the first manifold n = {n}")
    try:  # the ladder's peak bounds the manifolds' index array too
        n_loc = _padded_size(params, manifold_max + 1)
    except ValueError as exc:
        problems.append(f"spectrum up to manifold_max = {manifold_max}: {exc}")
    else:
        try:  # the order-2 shifts divide by every other level gap
            if config.order == 2:
                _check_resonance(params, n, n_loc)
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError(problems)
    return params, n, np.arange(n, manifold_max + 1), paths["spectrum"]


def run_scenario(
    config: ScenarioConfig, *, output_dir: str | None = None
) -> tuple[Trajectory, dict]:
    """Execute one scenario end to end.

    Settles the run with :func:`plan_run`, runs each route's propagator on
    its projection and the plan's grid, and writes the CSV trajectories (in
    the plan's period) plus the manifest, which it returns as the dict it wrote.
    Numerical validity (norm drift of every trajectory, truncation occupancy,
    the initial weight each expansion pruned beside the bound it sets on any
    W or P value, and the secular projection's strong-coupling weight beside
    :data:`~mprabi.dynamics.COMPLETENESS_TOL`), every warning raised on the
    way (the lines of :func:`recorded_warnings`) and the time of each stage
    of :data:`STAGES` (0 for one not run) are recorded in the manifest; the
    returned trajectory is the numeric one when it ran, else the secular one.
    Compute and emission run in one ``try``, so every ending in them writes
    the manifest.  An exception of any kind, interrupts included, leaves the
    CSVs written before it, and failed validity checks leave them all; the
    manifest then says ``"status": "failed"`` with the error text (else its
    type name), lists the files on disk and has ``norm_ok`` false unless
    every route finished, and the error is raised once the manifest is
    written (or without it, if that write fails too).  An interrupt while the
    manifest is built or written is the run's error in its place: the
    manifest is written again, saying so.
    """
    start = time.perf_counter()
    wall = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    timings = dict.fromkeys(STAGES, 0.0)

    trajs = {}  # by route, in the order of _CSV_KEYS
    error = None
    with recorded_warnings() as caught:
        with _timed(timings, "plan"):
            outputs, params, n, period, grid, projections, planned = plan_run(config, output_dir)
        timings.update(planned)
        timings["plan"] -= timings["hamiltonian"] + timings["secular_basis"]
        written = {"manifest": outputs["manifest"]}
        try:
            evolve = {"numeric": evolve_numeric, "rwa": evolve_rwa}
            for route, projection in projections.items():
                with _timed(timings, route):
                    trajs[route] = evolve[route](projection, *grid, period=period)
            with _timed(timings, "emit"):
                for route, traj in trajs.items():
                    key = _CSV_KEYS[route]
                    emit_csv(traj, outputs[key], period=period,
                             done=functools.partial(written.update, {key: outputs[key]}))
        except BaseException as exc:  # interrupts included: the manifest says how the run ended
            error = exc

    def conclude(error):
        """Build and write the manifest of a run that ``error`` (None for a
        clean one) ended; returns it and the error, a failed validity check's
        included."""
        computed = len(trajs) == len(config.propagators)
        if isinstance(error, MemoryError):  # an allocation the plan's probe did not foresee
            stage = "emission" if computed else "compute"
            error = MemoryError(f"out of memory during {stage}: {error}")
        norm_ok = computed and all(
            bool(np.max(np.abs(t.norm - 1.0)) <= NORM_TOL) for t in trajs.values()
        )
        truncation_ok = all(t.truncation_ok for t in trajs.values())
        if error is None and not (norm_ok and truncation_ok):
            error = ValidityError(
                f"run finished but failed validity checks (norm_ok={norm_ok}, "
                f"truncation_ok={truncation_ok}); see manifest {outputs['manifest']}"
            )
        v_leading = coupling_element(params, n, n)
        rabi = 2.0 * abs(v_leading)

        manifest = {
            "config": {
                **_params_record(params),
                **{key: getattr(config, key) for key in _CONFIG_RECORD},
                "n": n,
                "t_end_periods": config.t_end,
                "dt_periods": config.dt,
                "propagators": list(config.propagators),
            },
            "derived": {
                "omega_eg": omega_eg(params),
                "delta_n": omega_eg(params) - n * params.omega,
                "V_leading": v_leading,
                "Omega_leading": rabi,
                "rabi_period_periods": (2.0 * math.pi / rabi) / period if rabi > 0 else None,
            },
            "validity": {
                "norm_ok": norm_ok,
                "truncation_ok": truncation_ok,
                "pruned": {
                    route: {
                        "weight": t.pruned_weight,
                        "observable_bound": 2.0 * math.sqrt(t.pruned_weight) + t.pruned_weight,
                    }
                    for route, t in trajs.items()
                },
                "warnings": caught,
            },
            "outputs": written,
            "status": "ok" if error is None else "failed",
            "error": None if error is None else str(error) or type(error).__name__,
            "code_version": __version__,
            "environment": _environment(),
            "wall_clock_utc": wall,
            "timings": {stage: round(seconds, 6) for stage, seconds in timings.items()},
            "elapsed_seconds": round(time.perf_counter() - start, 6),
        }
        if "rwa" in projections:  # the start's weight where the secular route is unreliable
            strong = {"weight": projections["rwa"].strong_weight, "bound": COMPLETENESS_TOL}
            manifest["validity"]["strong_coupling"] = strong
        try:
            with _atomic_write(outputs["manifest"]) as handle:
                handle.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
        except OSError:
            if error is None:
                raise
        return manifest, error

    try:
        manifest, error = conclude(error)
    except KeyboardInterrupt as exc:  # interrupted while concluding: the manifest says so
        manifest, error = conclude(exc)
    if error is not None:
        raise error
    return next(iter(trajs.values())), manifest
