"""Run orchestration and machine-readable outputs.

A scenario run resolves its parameters, integrates the requested propagators,
and emits a wide CSV per trajectory plus one JSON manifest that echoes every
resolved input, the derived resonance quantities, and the validity flags, so
a run is reconstructible from its outputs alone.  All files are written
atomically (temp file in the target directory, then rename); CSV text is
rendered in blocks of rows by a vectorized kernel and streamed into that temp
file, so no copy of the whole CSV text is ever held in memory.  The pipeline
is free of randomness: identical configs produce byte-identical CSV bytes.

Trajectory CSV layout: header row then one row per sample with columns
``t_periods, W, norm, energy, P0 .. P{n_max-1}``.  Times are in oscillator
periods T = 2 pi / omega, each float is written as ``'%.17g' % x`` writes it
(17 significant digits), rows end in LF, and the ``norm`` column holds the
squared norm (total probability), so the P columns of a row sum to it
identically.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import os
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ScenarioConfig,
    default_manifest_path,
    default_rwa_csv_path,
)
from .dynamics import (
    NORM_TOL,
    InitialStateSpec,
    ProjectionError,
    Trajectory,
    evolve_numeric,
    evolve_rwa,
    prepare_initial,
    project_secular,
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


def _atomic_write(path: str, chunks) -> None:
    """Write byte chunks so that no partial file is ever visible at ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# The CSV kernel renders a block of float64 values to exactly the bytes of
# '%.17g' % x, each followed by its separator.
#
# Digits.  With k = floor(log10 |x|), y = |x| 10^(16-k) lies in [1e16, 1e17)
# and the 17 significant digits are y rounded to an integer.  k comes from
# log10 and is fixed against thresh[k], the smallest double >= 10^k.  The
# product is taken as x' P with x' = |x| 2^a (exact) and P = 10^(16-k) 2^-a
# = P_hi + P_lo, a chosen per k so that neither factor nor the Dekker split
# of either overflows, and subnormal x need no special case.
# Error bound: P_hi + P_lo is within 2^-107 of P (128-bit truncation, then
# P_lo rounded); x' P_hi = p + e exactly (Veltkamp/Dekker two-product, as
# numpy has no FMA); p >= 2^53 is an integer.  t = x' P_lo is rounded by at
# most 2^-53 |t| <= 2^-106 y, the table error adds 2^-107 y, and s = e + t
# (|s| < 32) by at most 2^-49.  With y < 1e17 < 2^56.5 that is < 2^-47 in
# all, so frac(s) is the fractional part of y to within 2^-47 (mod 1), and
# every value whose frac(s) lies farther than _TIE_BOUND = 2^-46 from 1/2
# rounds correctly.  The rest (exact ties included) and non-finite values
# are rendered by '%.17g' itself.
#
# Text.  Each value gets a 32-byte source row: the first digit, '.', '-',
# 'e', the other 16 digits from a 4-digit lookup table gathered as uint32,
# the exponent's digits, '+', '0', zero padding and the separator.  A
# precomputed layout per (notation, significant digits, sign) lists the
# source bytes of the text in order, padded with a zero byte; one gather
# and dropping the zero bytes give the block's CSV text.

_K_LO, _K_HI = -324, 308  # decimal exponents of nonzero doubles
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's split constant
_TIE_BOUND = 2.0**-46
_TEXT = 24  # longest '%.17g' text: '-1.2345678901234567e-308'
# source row bytes: 0 first digit, 4..19 other digits, 20..23 exponent
# digits, 28 zero padding, 31 separator
_DOT, _MINUS, _E, _PLUS, _ZERO, _PAD, _SEP = 1, 2, 3, 24, 25, 28, 31
_SOURCE_CONSTANTS = {_DOT: ".", _MINUS: "-", _E: "e", _PLUS: "+", _ZERO: "0"}

#: values per block of the CSV kernel; bounds its temporaries (~3 MiB)
_CSV_BLOCK = 10_000


class _KernelTables(NamedTuple):
    thresh: np.ndarray  # smallest double >= 10^k, then inf
    scale: np.ndarray  # 2^a
    p_hi: np.ndarray  # P = 10^(16-k) 2^-a = p_hi + p_lo
    p_hi_h: np.ndarray  # p_hi = p_hi_h + p_hi_l, Veltkamp split
    p_hi_l: np.ndarray
    p_lo: np.ndarray
    layout: np.ndarray  # source bytes of the text, per layout key
    groups4: np.ndarray  # ASCII of 0000 .. 9999 as uint32
    trailing4: np.ndarray  # trailing zeros of 0000 .. 9999


@functools.cache
def _kernel_tables() -> _KernelTables:
    """The kernel's tables, built on first use so that importing the
    package does not pay for them."""
    return _KernelTables(*_power_tables(), _layouts(), *_digit_tables())


def _power_tables():
    """thresh, scale, p_hi, p_hi_h, p_hi_l and p_lo for k = _K_LO .. _K_HI,
    with integer arithmetic."""
    pow10 = [1]
    for _ in range(16 - _K_LO):
        pow10.append(pow10[-1] * 10)
    # smallest double >= 10^k as c units of 2^q (subnormal below 1e-307)
    q_pos = [p.bit_length() - 53 for p in pow10[: _K_HI + 1]]
    c_pos = [-(-p >> q) if q > 0 else p << -q for p, q in zip(pow10, q_pos)]
    recip = pow10[-_K_LO:0:-1]  # 10^-k for k = _K_LO .. -1
    q_neg = [max(-p.bit_length() - 52, -1074) for p in recip]
    c_neg = [-(-(1 << -q) // p) for p, q in zip(recip, q_neg)]
    thresh = np.append(np.ldexp(np.array(c_neg + c_pos, dtype=float), q_neg + q_pos), np.inf)
    # 10^m, m = 16 - k, truncated to 128 bits: mant 2^f
    up = pow10[: 17 - _K_LO]
    f_up = [p.bit_length() - 128 for p in up]
    mant_up = [p >> f if f >= 0 else p << -f for p, f in zip(up, f_up)]
    down = pow10[_K_HI - 16 : 0 : -1]  # 10^-m for m = 16 - _K_HI .. -1
    f_down = [-p.bit_length() - 127 for p in down]
    mant_down = [(1 << -f) // p for p, f in zip(down, f_down)]
    mant = (mant_down + mant_up)[::-1]  # k = _K_LO .. _K_HI
    f = np.array((f_down + f_up)[::-1])
    k = np.arange(_K_LO, _K_HI + 1)
    a = np.clip(np.rint(-k * math.log2(10.0)), -1022, 1023).astype(int)
    top = [(m + (1 << 74)) >> 75 for m in mant]
    hi = np.ldexp(np.array(top, dtype=float), f + 75 - a)
    lo = np.ldexp(np.array([m - (t << 75) for m, t in zip(mant, top)], dtype=float), f - a)
    c = _SPLITTER * hi
    hi_h = c - (c - hi)
    return thresh, np.ldexp(1.0, a), hi, hi_h, hi - hi_h, lo


def _layouts():
    """Source bytes of the text of every layout key, padded to _TEXT, then
    the separator.  Key (code * 17 + nd - 1) * 2 + negative, where code
    0..20 is fixed notation with k = code - 4 and 21..24 scientific
    (+2 for a negative exponent, +1 for a three-digit one)."""
    code = np.arange(25)[:, None, None]
    nd = np.arange(1, 18)[None, :, None]
    j = np.arange(_TEXT - 1)[None, None, :]
    small = code < 4  # 0.000ddd
    fixed = (code >= 4) & (code < 21)
    lead = np.where(small, 5 - code, 0)  # '0.' and the zeros after it
    point = np.where(fixed, code - 3, 1)  # digits before the point
    has_point = ~small & (nd > point)
    body = np.where(fixed, np.maximum(nd, code - 3), nd) + has_point
    jb = j - lead
    digit = jb - (has_point & (jb > point))
    out = np.where(has_point & (jb == point), _DOT, np.where(digit == 0, 0, 3 + digit))
    out = np.where(jb < body, out, _PAD)
    out = np.where(jb < 0, np.where(j == 1, _DOT, _ZERO), out)
    js = jb - body
    wide = (code - 21) & 1
    sign = np.where((code - 21) & 2, _MINUS, _PLUS)
    tail = np.select([js == 0, js == 1, js < 4 + wide], [_E, sign, 20 - wide + js], _PAD)
    out = np.where((code >= 21) & (js >= 0), tail, out)
    rows = np.empty((25, 17, 2, _TEXT + 1), dtype=np.intp)
    rows[:, :, 0, :-2] = out
    rows[:, :, 0, -2] = _PAD
    rows[:, :, 1, 0] = _MINUS
    rows[:, :, 1, 1:-1] = out
    rows[..., -1] = _SEP
    return rows.reshape(-1, _TEXT + 1)


def _digit_tables():
    """The 4-digit ASCII groups 0000..9999 as uint32, and the trailing zeros
    of each group (4 for 0000)."""
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    for place in range(4):
        chars[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    zero = np.arange(10) == 0
    trailing = np.zeros((10, 10, 10, 10), dtype=np.intp)
    run = np.ones(1, dtype=bool)
    for place in range(4):
        run = run & zero.reshape((10,) + (1,) * place)
        trailing += run
    return chars.view(np.uint32).ravel(), trailing.ravel()


def _format_block(values: np.ndarray, source: np.ndarray) -> np.ndarray:
    """The CSV text of ``values`` as uint8, each value followed by the
    separator byte of its row in ``source`` (shape (values.size, 32), with
    the constant bytes set)."""
    tab = _kernel_tables()
    mag = np.abs(values)
    finite = np.isfinite(values)
    regular = finite & (mag > 0.0)
    mag = np.where(regular, mag, 1.0)
    # log10 is off by a few ulps at most, so k is off by at most one
    i = np.floor(np.log10(mag)).astype(np.intp) - _K_LO
    i -= mag < tab.thresh[i]
    i += mag >= tab.thresh[i + 1]

    x = mag * tab.scale[i]
    c = _SPLITTER * x
    x_h = c - (c - x)
    x_l = x - x_h
    p_h, p_l = tab.p_hi_h[i], tab.p_hi_l[i]
    p = x * tab.p_hi[i]
    e = x_l * p_l - (((p - x_h * p_h) - x_l * p_h) - x_h * p_l)
    s = e + x * tab.p_lo[i]
    whole = np.floor(s)
    frac = s - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    k = i + _K_LO
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    digits[~regular] = 0  # zeros print as '0', non-finite values fall back
    k[~regular] = 0
    fallback = np.flatnonzero(~finite | (np.abs(frac - 0.5) <= _TIE_BOUND))

    # the first digit, then four groups of four
    high = digits // 10**8
    low = digits - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    groups = np.empty((values.size, 4), dtype=np.int64)
    for col, part in ((0, high), (2, low)):
        groups[:, col] = part // 10**4
        groups[:, col + 1] = part - groups[:, col] * 10**4
    trailing = tab.trailing4[groups[:, 3]]
    run = groups[:, 3] == 0
    for g in (2, 1, 0):
        trailing += run * tab.trailing4[groups[:, g]]
        run &= groups[:, g] == 0

    source[:, 0] = 48 + first
    words = source.view(np.uint32)
    words[:, 1:5] = tab.groups4[groups]
    words[:, 5] = tab.groups4[np.abs(k)]
    code = np.where((k >= -4) & (k <= 16), k + 4, 21 + 2 * (k < 0) + (np.abs(k) >= 100))
    index = tab.layout[(code * 17 + 16 - trailing) * 2 + np.signbit(values)]
    index += np.arange(0, source.size, source.shape[1])[:, None]
    text = source.reshape(-1)[index]
    for j in fallback.tolist():
        fixed = ("%.17g" % values[j]).encode("ascii")
        text[j, : len(fixed)] = np.frombuffer(fixed, dtype=np.uint8)
        text[j, len(fixed) : _TEXT] = 0
    text = text.reshape(-1)
    return text[text != 0]


def _csv_blocks(traj: Trajectory, omega: float):
    """The canonical CSV bytes of a trajectory: the header, then blocks of
    rows rendered by :func:`_format_block`."""
    n_t, n_max = traj.photon_dist.shape
    period = 2.0 * math.pi / omega
    yield ("t_periods,W,norm,energy," + ",".join(f"P{i}" for i in range(n_max)) + "\n").encode()
    n_cols = 4 + n_max
    rows = max(1, _CSV_BLOCK // n_cols)
    values = np.empty((min(rows, n_t), n_cols))
    source = np.zeros((values.size, 32), dtype=np.uint8)
    for offset, char in _SOURCE_CONSTANTS.items():
        source[:, offset] = ord(char)
    separators = source.reshape(*values.shape, 32)[..., _SEP]
    separators[:] = ord(",")
    separators[:, -1] = ord("\n")
    for start in range(0, n_t, rows):
        block = slice(start, start + rows)
        n = min(rows, n_t - start)
        values[:n, 0] = traj.times[block] / period
        values[:n, 1] = traj.inversion[block]
        values[:n, 2] = traj.norm[block]
        values[:n, 3] = traj.energy[block]
        values[:n, 4:] = traj.photon_dist[block]
        yield _format_block(values[:n].reshape(-1), source[: n * n_cols])


def emit_csv(traj: Trajectory, path: str, *, omega: float) -> None:
    """Stream a trajectory CSV block by block into an atomic write."""
    _atomic_write(path, _csv_blocks(traj, omega))


def emit_spectrum(
    params: ModelParams,
    spec: ResonanceSpec,
    manifolds,
    path: str,
    *,
    order: int = 1,
) -> None:
    """Write the dressed-spectrum JSON export of some manifolds at secular ``order``."""
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
    payload.update(spectrum_records(params, spec, list(manifolds), order=order))
    _atomic_write(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])


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
    """Return one problem string per unusable directory of the output paths."""
    problems = []
    for directory in dict.fromkeys(os.path.dirname(os.path.abspath(path)) for path in paths):
        if not os.path.isdir(directory):
            problems.append(f"output directory does not exist: {directory}")
        elif not os.access(directory, os.W_OK):
            problems.append(f"output directory not writable: {directory}")
    return problems


class RunPlan(NamedTuple):
    """What a run settles before it propagates (see :func:`plan_run`)."""

    outputs: dict  # manifest "outputs": manifest, csv and rwa_csv paths
    params: ModelParams
    spec: ResonanceSpec
    psi0: np.ndarray
    projection: tuple | None  # project_secular's, when the secular route runs


def plan_run(config: ScenarioConfig, output_dir: str | None = None) -> RunPlan:
    """Everything :func:`run_scenario` settles before any compute.

    Resolves the files the run writes (the manifest, plus one CSV per
    propagator) and checks that their directories are writable, resolves the
    model parameters and prepares the initial state.  When the secular route
    runs, it keeps the state's :func:`~mprabi.dynamics.project_secular`
    projection, which :func:`~mprabi.dynamics.evolve_rwa` then expands.
    Raises one :class:`ConfigError` with every unusable directory and a start
    state that does not fit the truncation or the secular basis (an order-2
    basis off the resonance included).  ``mprabi validate`` runs this call,
    so it rejects exactly what a run rejects before compute.
    """
    outputs = {"manifest": default_manifest_path(config)}
    if "numeric" in config.propagators:
        outputs["csv"] = config.csv_path
    if "rwa" in config.propagators:
        outputs["rwa_csv"] = default_rwa_csv_path(config)
    outputs = {key: resolve_output_path(path, output_dir) for key, path in outputs.items()}
    problems = check_writable(outputs.values())
    params, spec = resolve_params(config)
    initial = InitialStateSpec(config.initial_kind, config.n_photons, config.mean_photons)
    try:
        psi0 = prepare_initial(initial, params, FockSpace(config.n_max))
        secular = "rwa" in config.propagators
        projection = project_secular(params, spec, psi0, config.order) if secular else None
    except (ValueError, ProjectionError) as exc:  # TruncationError is a ValueError
        raise ConfigError([*problems, str(exc)]) from exc
    if problems:
        raise ConfigError(problems)
    return RunPlan(outputs, params, spec, psi0, projection)


def run_scenario(
    config: ScenarioConfig, *, output_dir: str | None = None
) -> tuple[Trajectory, RunManifest]:
    """Execute one scenario end to end.

    Settles the run with :func:`plan_run`, runs the requested propagators,
    and writes the CSV trajectories plus the manifest.
    Numerical validity (norm drift of every trajectory, truncation occupancy)
    and every warning raised on the way are recorded in the manifest; the
    returned trajectory is the numeric one when it ran, else the secular one.
    """
    start = time.perf_counter()
    wall = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")

    numeric_traj = rwa_traj = None
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        outputs, params, spec, psi0, projection = plan_run(config, output_dir)
        period = 2.0 * math.pi / params.omega
        t_end = config.t_end * period
        dt = config.dt * period
        if "numeric" in config.propagators:
            hamiltonian = build_full(params, FockSpace(config.n_max))
            numeric_traj = evolve_numeric(
                hamiltonian, psi0, t_end, dt, sample_every=config.sample_every, period=period
            )
        if projection is not None:
            t_grid = sample_steps(t_end, dt, config.sample_every) * dt
            rwa_traj = evolve_rwa(params, spec, projection, t_grid)
        v_leading = coupling_element(params, spec.n, spec.n)
        caught = sorted({f"{w.category.__name__}: {w.message}" for w in log})

    ran = [t for t in (numeric_traj, rwa_traj) if t is not None]
    norm_ok = all(bool(np.max(np.abs(t.norm - 1.0)) <= NORM_TOL) for t in ran)
    truncation_ok = all(t.truncation_ok for t in ran)
    rabi = 2.0 * abs(v_leading)

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
        emit_csv(numeric_traj, outputs["csv"], omega=params.omega)
    if rwa_traj is not None:
        emit_csv(rwa_traj, outputs["rwa_csv"], omega=params.omega)
    manifest.elapsed_seconds = round(time.perf_counter() - start, 6)
    _atomic_write(
        outputs["manifest"],
        [(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n").encode()],
    )

    if not (norm_ok and truncation_ok):
        raise ValidityError(
            f"run finished but failed validity checks (norm_ok={norm_ok}, "
            f"truncation_ok={truncation_ok}); see manifest {outputs['manifest']}"
        )
    return ran[0], manifest
