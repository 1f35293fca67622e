"""Run orchestration and machine-readable outputs.

A scenario run resolves its parameters, integrates the requested propagators,
and emits a wide CSV per trajectory plus one JSON manifest that echoes every
resolved input, the derived resonance quantities, and the validity flags, so
a run is reconstructible from its outputs alone.  All files are written
atomically (temp file in the target directory, then rename); CSV rows are
rendered one at a time and streamed into that temp file, so no copy of the
whole CSV text is ever held in memory.  The pipeline is free of randomness:
identical configs produce byte-identical CSV bytes.

Trajectory CSV layout: header row then one row per sample with columns
``t_periods, W, norm, energy, P0 .. P{n_max-1}``.  Times are in oscillator
periods T = 2 pi / omega, floats carry 17 significant digits, rows end in LF,
and the ``norm`` column holds the squared norm (total probability), so the P
columns of a row sum to it identically.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ScenarioConfig,
    default_manifest_path,
    default_rwa_csv_path,
)
from .dynamics import (
    InitialStateSpec,
    Trajectory,
    evolve_numeric,
    evolve_rwa,
    prepare_initial,
    sample_steps,
)
from .fockmath import FockSpace
from .model import ModelParams, build_full
from .rwa import (
    ResonanceSpec,
    coupling_element,
    omega_eg,
    resonant_omega0,
    spectrum_records,
)

OUTPUT_DIR_ENV = "MPRABI_OUTPUT_DIR"


class ValidityError(RuntimeError):
    """A finished run failed its numerical-validity checks."""


@dataclass
class RunManifest:
    """Everything needed to reconstruct and judge one run."""

    config: dict
    derived: dict
    validity: dict
    outputs: dict
    code_version: str
    wall_clock_utc: str
    elapsed_seconds: float


def _atomic_write_text(path: str, chunks) -> None:
    """Write text chunks so that no partial file is ever visible at ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _csv_lines(traj: Trajectory, omega: float):
    """The canonical CSV text of a trajectory, one line at a time."""
    n_max = traj.photon_dist.shape[1]
    period = 2.0 * math.pi / omega
    yield "t_periods,W,norm,energy," + ",".join(f"P{i}" for i in range(n_max)) + "\n"
    row = ",".join(["%.17g"] * (4 + n_max)) + "\n"
    for i in range(len(traj)):
        lead = (traj.times[i] / period, traj.inversion[i], traj.norm[i], traj.energy[i])
        yield row % (*lead, *traj.photon_dist[i].tolist())


def emit_csv(traj: Trajectory, path: str, *, omega: float) -> None:
    """Stream a trajectory CSV row by row into an atomic write."""
    _atomic_write_text(path, _csv_lines(traj, omega))


def emit_spectrum(
    params: ModelParams,
    spec: ResonanceSpec,
    manifolds,
    path: str,
) -> None:
    """Write the dressed-spectrum JSON export for a range of manifolds."""
    payload = {
        "params": {
            "omega": params.omega,
            "omega0": params.omega0,
            "lambda_g": params.lambda_g,
            "lambda_e": params.lambda_e,
            "lambda_eg": params.lambda_eg,
        },
        "omega_eg": omega_eg(params),
    }
    payload.update(spectrum_records(params, spec, list(manifolds)))
    _atomic_write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def resolve_params(config: ScenarioConfig) -> tuple[ModelParams, ResonanceSpec]:
    """Model parameters and resonance bookkeeping implied by a config.

    Signed diagonal couplings are mapped literally onto the Hamiltonian.  With
    ``n`` given, omega0 is placed exactly on the n-photon resonance; with an
    explicit omega0 the resonance order is the nearest integer to
    omega_eg / omega (at least 1) and delta_n records the leftover detuning.
    """
    omega = config.omega
    lam = dict(
        lambda_g=config.lambda_g * omega,
        lambda_e=config.lambda_e * omega,
        lambda_eg=config.lambda_eg * omega,
    )
    if config.n is not None:
        omega0 = resonant_omega0(
            config.n, omega=omega, lambda_g=lam["lambda_g"], lambda_e=lam["lambda_e"]
        )
        params = ModelParams(omega=omega, omega0=omega0, allow_signed=True, **lam)
        spec = ResonanceSpec.from_params(params, config.n)
    else:
        params = ModelParams(omega=omega, omega0=config.omega0, allow_signed=True, **lam)
        shifted = omega_eg(params)
        n = max(1, int(round(shifted / omega)))
        spec = ResonanceSpec.from_params(params, n)
    return params, spec


def resolve_output_path(path: str, output_dir: str | None) -> str:
    """Relative output paths land in output_dir (argument, else the
    environment override, else the current directory)."""
    if os.path.isabs(path):
        return path
    base = output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    return os.path.join(base, path)


def check_writable(paths) -> list[str]:
    """Return one problem string per unusable output path."""
    problems = []
    for path in paths:
        directory = os.path.dirname(os.path.abspath(path)) or "."
        if not os.path.isdir(directory):
            problems.append(f"output directory does not exist: {directory}")
        elif not os.access(directory, os.W_OK):
            problems.append(f"output directory not writable: {directory}")
    return problems


def run_scenario(
    config: ScenarioConfig, *, output_dir: str | None = None
) -> tuple[Trajectory, RunManifest]:
    """Execute one scenario end to end.

    Builds the Hamiltonian, prepares the initial state, runs the requested
    propagators, and writes the CSV trajectories plus the manifest.  Numerical
    validity (norm drift, truncation occupancy) is recorded in the manifest;
    the returned trajectory is the numeric one when it ran, else the secular
    one.
    """
    start = time.perf_counter()
    wall = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")

    csv_path = resolve_output_path(config.csv_path, output_dir)
    rwa_csv_path = resolve_output_path(default_rwa_csv_path(config), output_dir)
    manifest_path = resolve_output_path(default_manifest_path(config), output_dir)
    wanted_paths = [manifest_path]
    if "numeric" in config.propagators:
        wanted_paths.append(csv_path)
    if "rwa" in config.propagators:
        wanted_paths.append(rwa_csv_path)
    path_problems = check_writable(wanted_paths)
    if path_problems:
        raise ConfigError(path_problems)

    params, spec = resolve_params(config)
    space = FockSpace(config.n_max)
    period = 2.0 * math.pi / params.omega
    t_end = config.t_end * period
    dt = config.dt * period

    initial = InitialStateSpec(
        kind=config.initial_kind,
        n_photons=config.n_photons,
        mean_photons=config.mean_photons,
    )

    caught: list[str] = []
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        psi0 = prepare_initial(initial, params, space)
        hamiltonian = build_full(params, space)

        numeric_traj = None
        rwa_traj = None
        if "numeric" in config.propagators:
            numeric_traj = evolve_numeric(
                hamiltonian, psi0, t_end, dt, sample_every=config.sample_every
            )
        if "rwa" in config.propagators:
            if numeric_traj is not None:
                t_grid = numeric_traj.times
            else:
                t_grid = sample_steps(t_end, dt, config.sample_every) * dt
            rwa_traj = evolve_rwa(params, spec, psi0, t_grid, order=config.order)
        caught = sorted({f"{w.category.__name__}: {w.message}" for w in log})

    primary = numeric_traj if numeric_traj is not None else rwa_traj
    norm_ok = bool(np.max(np.abs(primary.norm - 1.0)) <= 1e-6)
    truncation_ok = all(
        t.truncation_ok for t in (numeric_traj, rwa_traj) if t is not None
    )

    v_leading = coupling_element(params, spec.n, spec.n)
    rabi = 2.0 * abs(v_leading)
    outputs = {"manifest": manifest_path}
    if numeric_traj is not None:
        outputs["csv"] = csv_path
    if rwa_traj is not None:
        outputs["rwa_csv"] = rwa_csv_path

    manifest = RunManifest(
        config={
            "omega": params.omega,
            "omega0": params.omega0,
            "lambda_g": params.lambda_g,
            "lambda_e": params.lambda_e,
            "lambda_eg": params.lambda_eg,
            "n": spec.n,
            "initial_kind": config.initial_kind,
            "n_photons": config.n_photons,
            "mean_photons": config.mean_photons,
            "t_end_periods": config.t_end,
            "dt_periods": config.dt,
            "sample_every": config.sample_every,
            "n_max": config.n_max,
            "propagators": list(config.propagators),
            "order": config.order,
        },
        derived={
            "omega_eg": omega_eg(params),
            "delta_n": spec.delta_n,
            "V_leading": v_leading,
            "Omega_leading": rabi,
            "rabi_period_periods": (2.0 * math.pi / rabi) / period if rabi > 0 else None,
        },
        validity={
            "norm_ok": norm_ok,
            "truncation_ok": truncation_ok,
            "warnings": caught,
        },
        outputs=outputs,
        code_version=__version__,
        wall_clock_utc=wall,
        elapsed_seconds=0.0,
    )

    if numeric_traj is not None:
        emit_csv(numeric_traj, csv_path, omega=params.omega)
    if rwa_traj is not None:
        emit_csv(rwa_traj, rwa_csv_path, omega=params.omega)
    manifest.elapsed_seconds = round(time.perf_counter() - start, 6)
    _atomic_write_text(
        manifest_path, [json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"]
    )

    if not (norm_ok and truncation_ok):
        raise ValidityError(
            f"run finished but failed validity checks (norm_ok={norm_ok}, "
            f"truncation_ok={truncation_ok}); see manifest {manifest_path}"
        )
    return primary, manifest
