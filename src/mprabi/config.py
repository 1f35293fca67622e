"""Scenario configuration: schema, parsing, validation.

Config files are flat JSON objects (UTF-8).  Keys mirror the
:class:`ScenarioConfig` fields:

======================  =========================================================
key                     meaning (defaults in parentheses)
======================  =========================================================
omega                   oscillator frequency, the unit of every rate (1.0)
lambda_g, lambda_e      diagonal couplings in units of omega (0.0)
lambda_eg               transition coupling in units of omega (required)
n                       photon order of the resonance; implies the resonant
                        omega0 (exactly one of n / omega0 must be given)
omega0                  explicit bare splitting instead of n; n is then the
                        integer nearest omega_eg / omega (at least 1)
initial_kind            "excited-fock" (default) or "ground-coherent"
n_photons               Fock level for excited-fock (0)
mean_photons            coherent mean photon number for ground-coherent (0.0)
t_end                   run length in oscillator periods (100.0)
dt                      step in oscillator periods (0.001)
sample_every            steps between samples (10)
n_max                   boson truncation (200)
propagators             list drawn from ["numeric", "rwa"] (["numeric"])
order                   order of the secular route's energies: 1 for the
                        paper's treatment, 2 to add the second-order level
                        shifts (1)
csv_path                numeric trajectory CSV ("trajectory.csv")
rwa_csv_path            secular trajectory CSV ("_rwa" before csv_path's suffix)
manifest_path           run manifest JSON (csv_path, suffix -> ".manifest.json")
spectrum_path           spectrum export JSON (csv_path, suffix -> ".spectrum.json")
manifold_max            highest manifold in spectrum exports (n + 20)
======================  =========================================================

Signed lambda values are accepted and mapped literally onto the Hamiltonian
(the down-state coupling keeps its built-in minus sign); the manifest records
the literal values.  Validation collects every violated constraint before
reporting: unknown keys, then the numeric keys in the order of one table of
bounds (an integer beyond the float range reads as an infinity, as 1e400
does, and fails as one), then the keys limited to a few values
(initial_kind, order), then n / omega0, the propagators and the paths.
An absent or null rwa_csv_path, manifest_path or spectrum_path is derived
from the file name in csv_path.  Checks that need the model or the file
system, such as the initial state against n_max, are left to
:func:`mprabi.runner.plan_run`.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields

from .dynamics import KINDS
from .rwa import ORDERS

_REQUIRED_HINT = (
    "required keys: lambda_eg, and exactly one of n / omega0 "
    "(see the config schema in mprabi.config)"
)

_VALID_PROPAGATORS = ("numeric", "rwa")


class ConfigError(ValueError):
    """Invalid scenario document; ``problems`` lists every violation found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ScenarioConfig:
    lambda_eg: float
    lambda_g: float = 0.0
    lambda_e: float = 0.0
    omega: float = 1.0
    n: int | None = None
    omega0: float | None = None
    initial_kind: str = "excited-fock"
    n_photons: int = 0
    mean_photons: float = 0.0
    t_end: float = 100.0
    dt: float = 0.001
    sample_every: int = 10
    n_max: int = 200
    propagators: tuple[str, ...] = ("numeric",)
    order: int = 1
    csv_path: str = "trajectory.csv"
    rwa_csv_path: str | None = None
    manifest_path: str | None = None
    spectrum_path: str | None = None
    manifold_max: int | None = None


_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}

#: the numeric keys in the order they are checked, with their bounds
_NUMBERS = {
    "lambda_eg": dict(required=True),
    "lambda_g": {},
    "lambda_e": {},
    "omega": dict(exclusive_minimum=0.0),
    "n": dict(integer=True, minimum=1, allow_none=True),
    "omega0": dict(allow_none=True),
    "n_photons": dict(integer=True, minimum=0),
    "mean_photons": dict(minimum=0.0),
    "t_end": dict(exclusive_minimum=0.0),
    "dt": dict(exclusive_minimum=0.0),
    "sample_every": dict(integer=True, minimum=1),
    "n_max": dict(integer=True, minimum=2),
    "manifold_max": dict(integer=True, minimum=1, allow_none=True),
    "order": dict(integer=True),
}
#: the keys limited to a few values (order once it passes as a number)
_CHOICES = {"initial_kind": KINDS, "order": ORDERS}


def _parse_int(text: str):
    """A JSON integer literal; one of more than 310 characters lies beyond
    the float range and reads as an infinity, as the literal 1e400 does."""
    return float(text) if len(text) > 310 else int(text)


def _check_number(problems, data, key, *, required=False, integer=False, minimum=None,
                  exclusive_minimum=None, allow_none=False):
    if key not in data:
        if required:
            problems.append(f"missing key '{key}'")
        return None
    val = data[key]
    if val is None and allow_none:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        problems.append(f"key '{key}' must be a number, got {val!r}")
        return None
    if isinstance(val, int) and abs(val) > sys.float_info.max:
        val = math.inf if val > 0 else -math.inf
    if integer and not float(val).is_integer():
        problems.append(f"key '{key}' must be an integer, got {val!r}")
        return None
    if not math.isfinite(val):
        problems.append(f"key '{key}' must be finite, got {val!r}")
        return None
    if minimum is not None and val < minimum:
        problems.append(f"key '{key}' must be >= {minimum}, got {val!r}")
        return None
    if exclusive_minimum is not None and val <= exclusive_minimum:
        problems.append(f"key '{key}' must be > {exclusive_minimum}, got {val!r}")
        return None
    return int(val) if integer else float(val)


def parse_config(text: str, overrides: dict | None = None) -> ScenarioConfig:
    """Parse and validate a scenario document.

    ``overrides`` (command-line values, say) replace keys of the decoded
    document before validation, so they pass the same checks as the file.
    Raises :class:`ConfigError` carrying every violated constraint, or a parse
    diagnostic with line and column for malformed JSON.
    """
    try:
        data = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError([f"config must be a JSON object; {_REQUIRED_HINT}"])

    problems = [f"unknown key '{key}'" for key in data if key not in _DEFAULTS]
    if not data:
        raise ConfigError([f"empty config; {_REQUIRED_HINT}"])
    data.update(overrides or {})

    out: dict = {}
    for key, bounds in _NUMBERS.items():
        val = _check_number(problems, data, key, **bounds)
        if val is not None:
            out[key] = val
    if "initial_kind" in data:
        out["initial_kind"] = data["initial_kind"]
    for key, allowed in _CHOICES.items():
        if key in out and out[key] not in allowed:
            problems.append(f"key '{key}' must be one of {allowed}, got {data[key]!r}")
    if "n" in out and "omega0" in out:
        problems.append("keys 'n' and 'omega0' are mutually exclusive; give exactly one")
    elif data.get("n") is None and data.get("omega0") is None:
        problems.append(f"one of 'n' / 'omega0' is required; {_REQUIRED_HINT}")

    props = data.get("propagators", list(_DEFAULTS["propagators"]))
    if isinstance(props, list) and props and all(p in _VALID_PROPAGATORS for p in props):
        out["propagators"] = tuple(dict.fromkeys(props))
    else:
        problems.append(
            f"key 'propagators' must be a nonempty list from {_VALID_PROPAGATORS}, got {props!r}"
        )
    for key in ("csv_path", "rwa_csv_path", "manifest_path", "spectrum_path"):
        val = data.get(key)
        if isinstance(val, str) and val:
            out[key] = val
        elif key in data and not (val is None and _DEFAULTS[key] is None):
            problems.append(f"key '{key}' must be a nonempty string, got {val!r}")

    if problems:
        raise ConfigError(problems)
    stem, ext = os.path.splitext(out.setdefault("csv_path", _DEFAULTS["csv_path"]))
    out.setdefault("rwa_csv_path", f"{stem}_rwa{ext}")
    out.setdefault("manifest_path", f"{stem}.manifest.json")
    out.setdefault("spectrum_path", f"{stem}.spectrum.json")
    return ScenarioConfig(**out)
