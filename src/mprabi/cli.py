"""Command-line interface.

Sub-commands:
    run <config>        integrate a scenario and write CSV + manifest
    spectrum <config>   export the dressed-spectrum JSON for the scenario
    sweep <glob>        run every config matching a glob, sequentially
    validate <config>   parse and check a config without computing

Exit codes: 0 success, 1 configuration error, 2 numerical-validity failure
(norm drift, truncation, or a state the secular basis cannot represent).
Relative output paths resolve against --output-dir, else $MPRABI_OUTPUT_DIR,
else the working directory.  --dt, --n-max, --t-end and --manifold-max override
config values and are validated with them.
"""

from __future__ import annotations

import argparse
import glob
import sys

from .config import (
    ConfigError,
    ScenarioConfig,
    default_manifest_path,
    default_rwa_csv_path,
    parse_config,
)
from .dynamics import NormDriftError, ProjectionError, TruncationError
from .runner import (
    ValidityError,
    check_writable,
    emit_spectrum,
    resolve_output_path,
    resolve_params,
    run_scenario,
)

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
        key: getattr(args, key)
        for key in ("dt", "t_end", "n_max", "manifold_max")
        if getattr(args, key, None) is not None
    }
    return parse_config(text, overrides)


def _cmd_run(path: str, args) -> int:
    config = _load_config(path, args)
    traj, manifest = run_scenario(config, output_dir=args.output_dir)
    print(f"wrote {manifest.outputs.get('csv', manifest.outputs.get('rwa_csv'))}")
    print(f"manifest {manifest.outputs['manifest']} ({len(traj)} samples)")
    return EXIT_OK


def _cmd_spectrum(path: str, args) -> int:
    config = _load_config(path, args)
    params, spec = resolve_params(config)
    out_path = resolve_output_path(config.spectrum_path, args.output_dir)
    problems = check_writable([out_path])
    if problems:
        raise ConfigError(problems)
    manifold_max = config.manifold_max or spec.n + 20
    if manifold_max < spec.n:
        raise ConfigError([f"manifold_max = {manifold_max} below the first manifold n = {spec.n}"])
    emit_spectrum(params, spec, range(spec.n, manifold_max + 1), out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_validate(path: str, args) -> int:
    config = _load_config(path, args)
    paths = [resolve_output_path(default_manifest_path(config), args.output_dir)]
    if "numeric" in config.propagators:
        paths.append(resolve_output_path(config.csv_path, args.output_dir))
    if "rwa" in config.propagators:
        paths.append(resolve_output_path(default_rwa_csv_path(config), args.output_dir))
    problems = check_writable(paths)
    if problems:
        raise ConfigError(problems)
    resolve_params(config)
    print(f"{path}: ok")
    return EXIT_OK


def _cmd_sweep(pattern: str, args) -> int:
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise ConfigError([f"no configs match {pattern!r}"])
    worst = EXIT_OK
    for path in paths:
        print(f"== {path}")
        try:
            code = _cmd_run(path, args)
        except ConfigError as exc:
            _report_config_error(exc)
            code = EXIT_CONFIG
        except (NormDriftError, ProjectionError, TruncationError, ValidityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_NUMERIC
        worst = max(worst, code)
    return worst


def _report_config_error(exc: ConfigError) -> None:
    print("configuration error:", file=sys.stderr)
    for problem in exc.problems:
        print(f"  - {problem}", file=sys.stderr)


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
        ("validate", "check a config without computing"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="scenario config path" + (" glob" if name == "sweep" else ""))
        p.add_argument("--output-dir", default=None, help="directory for relative output paths")
        p.add_argument("--dt", type=float, default=None, help="override dt (oscillator periods)")
        p.add_argument("--t-end", type=float, default=None, help="override t_end (periods)")
        p.add_argument("--n-max", type=int, default=None, help="override the boson truncation")
        if name == "spectrum":
            p.add_argument("--manifold-max", type=int, default=None,
                           help="highest manifold to export")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config, args)
        if args.command == "spectrum":
            return _cmd_spectrum(args.config, args)
        if args.command == "validate":
            return _cmd_validate(args.config, args)
        return _cmd_sweep(args.config, args)
    except ConfigError as exc:
        _report_config_error(exc)
        return EXIT_CONFIG
    except (NormDriftError, ProjectionError, TruncationError, ValidityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
