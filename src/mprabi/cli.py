"""Command-line interface.

Sub-commands:
    run <config>        integrate a scenario and write CSV + manifest
    spectrum <config>   export the dressed-spectrum JSON for the scenario
    sweep <glob>        run every config matching a glob, sequentially
    validate <config>   run's checks without the propagation: the config with
                        its overrides, the output paths, the initial state
                        against the truncation, each route's projection of it,
                        and spectrum's output path, manifold range and order-2
                        resonance, every problem in one report

Exit codes: 0 success, 1 configuration error (a usage error, a start state
outside the truncation, one the secular basis cannot represent, an output
file that cannot be written and a run out of memory included), 2
numerical-validity failure (norm drift or top-level occupancy), 128 + the
signal number for an interrupt (130 for SIGINT, 143 for SIGTERM, which
:func:`main` raises as :class:`Interrupted`; a sweep stops there); one map,
:func:`_guarded`, gives them for every command and every config of a sweep,
and prints each warning a command raised as the line a manifest lists.
Output paths the config names resolve against --output-dir, else
$MPRABI_OUTPUT_DIR, else the working directory.  --dt, --n-max, --t-end and
--manifold-max override config values and are validated with them.
"""

from __future__ import annotations

import argparse
import glob
import os
import signal
import sys

from .config import ConfigError, ScenarioConfig, parse_config
from .csvtext import INTERRUPT_SIGNALS
from .dynamics import NormDriftError
from .runner import (
    ValidityError,
    emit_spectrum,
    plan_run,
    plan_spectrum,
    recorded_warnings,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


class Interrupted(KeyboardInterrupt):
    """SIGINT or SIGTERM, raised in the main thread by the handler that
    :func:`main` installs; its text is the signal's name."""

    def __init__(self, signum: int):
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


def _interrupt(signum, frame):
    raise Interrupted(signum)


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
    params, n, manifolds, out_path = plan_spectrum(config, args.output_dir)
    emit_spectrum(params, n, manifolds, out_path, order=config.order)
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_validate(path: str, args) -> int:
    config = _load_config(path, args)
    problems = []
    for plan in (plan_run, plan_spectrum):  # a warning both raise is shown once
        try:
            plan(config, args.output_dir)
        except ConfigError as exc:
            problems += exc.problems
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
        code = _guarded(_cmd_run, path, args)
        if code > EXIT_NUMERIC:  # interrupted: the configs after it do not run
            return code
        worst = max(worst, code)
    return worst


_COMMANDS = {
    "run": _cmd_run,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
}


def _guarded(command, path: str, args) -> int:
    """Run one command on one config; report a failure the CLI knows on
    stderr, then each warning the command raised as one line (see
    :func:`~mprabi.runner.recorded_warnings`), and return its exit code."""
    with recorded_warnings() as caught:
        try:
            code = command(path, args)
        except ConfigError as exc:
            print("configuration error:", file=sys.stderr)
            for problem in exc.problems:
                print(f"  - {problem}", file=sys.stderr)
            code = EXIT_CONFIG
        except (OSError, MemoryError, NormDriftError, ValidityError, KeyboardInterrupt) as exc:
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            if isinstance(exc, KeyboardInterrupt):  # a bare one is SIGINT's
                code = 128 + getattr(exc, "signum", signal.SIGINT)
            else:  # an output that cannot be written, or a run too large for
                # memory, is configuration, as at plan time
                code = EXIT_CONFIG if isinstance(exc, (OSError, MemoryError)) else EXIT_NUMERIC
    for line in caught:
        print(line, file=sys.stderr)
    return code


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
        ("validate", "run's checks without the propagation"),
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
    # a signal ignored where the process started stays ignored
    previous = {
        signum: signal.signal(signum, _interrupt) for signum in INTERRUPT_SIGNALS
        if signal.getsignal(signum) is not signal.SIG_IGN
    }
    try:
        return _guarded(_COMMANDS[args.command], args.config, args)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def entry() -> None:
    """The ``mprabi`` command: exits with :func:`main`'s code once stdout and
    stderr are flushed, skipping the interpreter's teardown (~7-19 ms a run)."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
