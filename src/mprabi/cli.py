"""Command-line interface.

Sub-commands:
    run <config>        integrate a scenario and write CSV + manifest
    spectrum <config>   export the dressed-spectrum JSON for the scenario
    sweep <glob>        run every config matching a glob, sequentially
    validate <config>   run's checks without the compute: the config with its
                        overrides, the output paths, the initial state against
                        the truncation, and spectrum's output path and
                        manifold range, every problem in one report

Exit codes: 0 success, 1 configuration error (a usage error, a start state
outside the truncation, one the secular basis cannot represent, an output
file that cannot be written and a run out of memory included), 2
numerical-validity failure (norm drift or top-level occupancy); one map,
:func:`_guarded`, gives them for every command and every config of a sweep.
Output paths the config names resolve against --output-dir, else
$MPRABI_OUTPUT_DIR, else the working directory.  --dt, --n-max, --t-end and
--manifold-max override config values and are validated with them.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import warnings

import numpy as np

from .config import ConfigError, ScenarioConfig, parse_config
from .dynamics import NormDriftError
from .model import ModelParams
from .runner import (
    ValidityError,
    emit_spectrum,
    plan_run,
    resolve_outputs,
    resolve_params,
    run_scenario,
)
from .rwa import _SPECTRUM_MATRICES, _padded_size

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def _load_config(path: str, args) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    overrides = {
        key: val for key, val in vars(args).items()
        if key in ScenarioConfig.__dataclass_fields__ and val is not None
    }
    return parse_config(text, overrides)


def _spectrum_target(
    config: ScenarioConfig, params: ModelParams, n: int, output_dir: str | None
) -> tuple[str, np.ndarray]:
    """The resolved path of the spectrum export, checked writable, and the
    index array of its manifolds n .. manifold_max (n + 20 by default),
    allocated here after the (n_loc x n_loc) matrices that the spectrum
    solver holds at its peak on the ladder the export pads past
    manifold_max; one :class:`ConfigError` lists the problems of both."""
    paths, problems = resolve_outputs(config, ["spectrum"], output_dir)
    manifold_max = config.manifold_max or n + 20
    if manifold_max < n:
        problems.append(f"manifold_max = {manifold_max} below the first manifold n = {n}")
    try:
        n_loc = _padded_size(params, manifold_max + 1)
        np.empty((_SPECTRUM_MATRICES, n_loc, n_loc))  # never written, so no page is touched
        manifolds = np.arange(n, manifold_max + 1)
    except (ValueError, OverflowError, MemoryError) as exc:
        problems.append(f"manifold_max = {manifold_max} is too large: {exc}")
    if problems:
        raise ConfigError(problems)
    return paths["spectrum"], manifolds


def _cmd_run(path: str, args) -> int:
    config = _load_config(path, args)
    traj, manifest = run_scenario(config, output_dir=args.output_dir)
    manifest_path, *csvs = manifest["outputs"].values()  # the manifest comes first
    for path in csvs:
        print(f"wrote {path}")
    print(f"manifest {manifest_path} ({len(traj)} samples)")
    return EXIT_OK


def _cmd_spectrum(path: str, args) -> int:
    config = _load_config(path, args)
    params, n = resolve_params(config)
    out_path, manifolds = _spectrum_target(config, params, n, args.output_dir)
    emit_spectrum(params, n, manifolds, out_path, order=config.order)
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_validate(path: str, args) -> int:
    config = _load_config(path, args)
    problems = []
    try:
        plan = plan_run(config, args.output_dir)
        params, n = plan.params, plan.n
    except ConfigError as exc:
        problems = exc.problems
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # plan_run has shown them
            params, n = resolve_params(config)
    try:
        _spectrum_target(config, params, n, args.output_dir)
    except ConfigError as exc:
        problems = problems + exc.problems
    if problems:
        raise ConfigError(dict.fromkeys(problems))  # a directory both miss, once
    print(f"{path}: ok")
    return EXIT_OK


def _cmd_sweep(pattern: str, args) -> int:
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise ConfigError([f"no configs match {pattern!r}"])
    worst = EXIT_OK
    for path in paths:
        print(f"== {path}")
        worst = max(worst, _guarded(_cmd_run, path, args))
    return worst


_COMMANDS = {
    "run": _cmd_run,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
}


def _guarded(command, path: str, args) -> int:
    """Run one command on one config; report a failure the CLI knows on
    stderr and return its exit code."""
    try:
        return command(path, args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, MemoryError, NormDriftError, ValidityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an output that cannot be written, or a run too large for memory, is
        # configuration, as at plan time
        return EXIT_CONFIG if isinstance(exc, (OSError, MemoryError)) else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mprabi",
        description="Multiphoton Rabi dynamics of a two-level system with "
        "permanent dipole couplings in a quantized oscillator mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate a scenario and write its outputs"),
        ("spectrum", "export the dressed-spectrum JSON"),
        ("sweep", "run every config matching a glob"),
        ("validate", "run's checks without the compute"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="scenario config path" + (" glob" if name == "sweep" else ""))
        p.add_argument("--output-dir", default=None, help="directory for relative output paths")
        p.add_argument("--dt", type=float, default=None, help="override dt (oscillator periods)")
        p.add_argument("--t-end", type=float, default=None, help="override t_end (periods)")
        p.add_argument("--n-max", type=int, default=None, help="override the boson truncation")
        if name in ("spectrum", "validate"):
            p.add_argument("--manifold-max", type=int, default=None,
                           help="highest manifold to export")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_CONFIG if exc.code == 2 else exc.code
    return _guarded(_COMMANDS[args.command], args.config, args)


def entry() -> None:
    """The ``mprabi`` command: exits with :func:`main`'s code once stdout and
    stderr are flushed, skipping the interpreter's teardown (~7-19 ms a run)."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
