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
omega0                  explicit bare splitting instead of n
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
rwa_csv_path            secular trajectory CSV (csv_path stem + "_rwa.csv")
manifest_path           run manifest JSON (csv_path stem + ".manifest.json")
spectrum_path           spectrum export JSON ("spectrum.json")
manifold_max            highest manifold in spectrum exports (n + 20)
======================  =========================================================

Signed lambda values are accepted and mapped literally onto the Hamiltonian
(the down-state coupling keeps its built-in minus sign); the manifest records
the literal values.  Validation collects every violated constraint before
reporting.
"""

from __future__ import annotations

import json
import math
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
    spectrum_path: str = "spectrum.json"
    manifold_max: int | None = None


_FIELD_NAMES = tuple(f.name for f in fields(ScenarioConfig))


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
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError([f"config must be a JSON object; {_REQUIRED_HINT}"])

    problems: list[str] = []
    for key in data:
        if key not in _FIELD_NAMES:
            problems.append(f"unknown key '{key}'")

    if not data:
        raise ConfigError([f"empty config; {_REQUIRED_HINT}"])
    data.update(overrides or {})

    out: dict = {}
    val = _check_number(problems, data, "lambda_eg", required=True)
    if val is not None:
        out["lambda_eg"] = val
    for key in ("lambda_g", "lambda_e"):
        val = _check_number(problems, data, key)
        if val is not None:
            out[key] = val
    val = _check_number(problems, data, "omega", exclusive_minimum=0.0)
    if val is not None:
        out["omega"] = val

    n_val = _check_number(problems, data, "n", integer=True, minimum=1, allow_none=True)
    omega0_val = _check_number(problems, data, "omega0", allow_none=True)
    has_n = n_val is not None
    has_omega0 = omega0_val is not None
    if has_n and has_omega0:
        problems.append("keys 'n' and 'omega0' are mutually exclusive; give exactly one")
    elif not has_n and not has_omega0:
        if not any("'n'" in p or "'omega0'" in p for p in problems):
            problems.append(f"one of 'n' / 'omega0' is required; {_REQUIRED_HINT}")
    if has_n:
        out["n"] = n_val
    if has_omega0:
        out["omega0"] = omega0_val

    if "initial_kind" in data:
        kind = data["initial_kind"]
        if kind not in KINDS:
            problems.append(f"key 'initial_kind' must be one of {KINDS}, got {kind!r}")
        else:
            out["initial_kind"] = kind
    val = _check_number(problems, data, "n_photons", integer=True, minimum=0)
    if val is not None:
        out["n_photons"] = val
    val = _check_number(problems, data, "mean_photons", minimum=0.0)
    if val is not None:
        out["mean_photons"] = val

    for key, kwargs in (
        ("t_end", dict(exclusive_minimum=0.0)),
        ("dt", dict(exclusive_minimum=0.0)),
        ("sample_every", dict(integer=True, minimum=1)),
        ("n_max", dict(integer=True, minimum=2)),
        ("manifold_max", dict(integer=True, minimum=1, allow_none=True)),
    ):
        val = _check_number(problems, data, key, **kwargs)
        if val is not None:
            out[key] = val

    val = _check_number(problems, data, "order", integer=True)
    if val is not None:
        if val in ORDERS:
            out["order"] = val
        else:
            problems.append(f"key 'order' must be one of {ORDERS}, got {data['order']!r}")

    if "propagators" in data:
        props = data["propagators"]
        if (
            not isinstance(props, list)
            or not props
            or any(p not in _VALID_PROPAGATORS for p in props)
        ):
            problems.append(
                f"key 'propagators' must be a nonempty list from {_VALID_PROPAGATORS}, "
                f"got {props!r}"
            )
        else:
            out["propagators"] = tuple(dict.fromkeys(props))

    for key in ("csv_path", "rwa_csv_path", "manifest_path", "spectrum_path"):
        if key in data:
            if data[key] is None and key in ("rwa_csv_path", "manifest_path"):
                continue
            if not isinstance(data[key], str) or not data[key]:
                problems.append(f"key '{key}' must be a nonempty string, got {data[key]!r}")
            else:
                out[key] = data[key]

    if data.get("initial_kind") == "ground-coherent":
        nbar = out.get("mean_photons", 0.0)
        n_max = out.get("n_max", 200)
        if nbar + 5.0 * math.sqrt(nbar) > n_max:
            problems.append(
                f"mean_photons = {nbar} needs n_max > {nbar + 5.0 * math.sqrt(nbar):.1f}, "
                f"got n_max = {n_max}"
            )

    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(**out)


def default_rwa_csv_path(config: ScenarioConfig) -> str:
    if config.rwa_csv_path is not None:
        return config.rwa_csv_path
    stem, dot, ext = config.csv_path.rpartition(".")
    return f"{stem}_rwa.{ext}" if dot else f"{config.csv_path}_rwa"


def default_manifest_path(config: ScenarioConfig) -> str:
    if config.manifest_path is not None:
        return config.manifest_path
    stem, dot, _ = config.csv_path.rpartition(".")
    base = stem if dot else config.csv_path
    return f"{base}.manifest.json"
