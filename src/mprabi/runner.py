"""Run orchestration and machine-readable outputs.

A scenario run resolves its parameters, integrates the requested propagators,
and emits a wide CSV per trajectory plus one JSON manifest that echoes every
resolved input, the derived resonance quantities, and the validity flags, so
a run is reconstructible from its outputs alone.  The config names the
output files and :func:`resolve_outputs` places and checks them.  All files
are written atomically (temp file in the target directory, then rename), with
the mode ``open(path, "w")`` would give them.  CSV text is rendered in blocks
of rows by a vectorized kernel and streamed to disk, so no copy of the whole
CSV text is ever held in memory.  A CSV large enough to repay a fork is cut
into contiguous row ranges, one per usable CPU, all rendering the columns
:func:`emit_csv` settles once: forked workers render every range but the
first into part files beside the target while this process writes the
header and renders the first range, then appends each part in row order as
its worker ends, and renames once.  A worker whose parent is gone stops.  The
pipeline is free of randomness, and the split does not change the bytes:
identical configs produce byte-identical CSVs at one BLAS build and one BLAS
thread count.  At another thread count the BLAS routines of the numeric
route (``eigh`` and the expansion's matrix products) round differently, and
its values move in their last digits (up to ~4e-12 in W).  The manifest's
``environment`` records what decides the bytes besides the config (see
:func:`_environment`), so two manifests say whether their CSVs should match.

The manifest also records the run's ``status`` (``"ok"`` or ``"failed"``,
with the ``error`` text) and the ``timings`` of its stages; a run that aborts
on norm drift or on a failed CSV write still writes it.

Trajectory CSV layout: header row then one row per sample with columns
``t_periods, W, norm, energy, P0 .. P{n_max-1}``.  Times are in oscillator
periods T = 2 pi / omega, each float is written as ``'%.17g' % x`` writes it
(17 significant digits), rows end in LF, and the ``norm`` column holds the
squared norm (total probability), so the P columns of a row sum to it
identically.
"""

from __future__ import annotations

import contextlib
import datetime
import functools
import json
import math
import os
import platform
import threading
import time
import warnings
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig
from .dynamics import (
    NORM_TOL,
    InitialStateSpec,
    NormDriftError,
    ProjectionError,
    Trajectory,
    evolve_numeric,
    evolve_rwa,
    prepare_initial,
    project_secular,
    sample_count,
)
from .fockmath import FockSpace
from .model import ModelParams, build_full
from .rwa import (
    RESONANCE_WINDOW,
    RWAValidityWarning,
    coupling_element,
    omega_eg,
    resonant_omega0,
    spectrum_records,
)

OUTPUT_DIR_ENV = "MPRABI_OUTPUT_DIR"
#: stages a run times into its manifest's ``timings``
STAGES = ("plan", "build", "numeric", "rwa", "emit")
#: the manifest ``outputs`` key of each route's CSV, in the order routes run
_CSV_KEYS = {"numeric": "csv", "rwa": "rwa_csv"}
#: the environment variables that set the BLAS thread count, echoed where set
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the config keys the manifest echoes as they are
_CONFIG_RECORD = ("initial_kind", "n_photons", "mean_photons", "sample_every", "n_max", "order")


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


def _temp_path(path: str) -> str:
    """A fresh name for a temp file beside ``path``."""
    return os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp_{os.urandom(8).hex()}~")


@contextlib.contextmanager
def _atomic_write(path: str):
    """A binary file whose bytes appear at ``path`` only once the ``with``
    block completes, so that no partial file is ever visible there.

    The temp file is created with mode 0o666 under the process umask, the
    mode ``open(path, "w")`` would give ``path``."""
    tmp_path = _temp_path(path)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp_path, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
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

#: values per block of the CSV kernel; bounds its temporaries (~1.5 MiB).
#: Blocks twice this size page-fault their temporaries in afresh each time
#: (~90k minor faults per 19 MB CSV, as glibc trims the heap between blocks),
#: which costs more than the larger block saves
_CSV_BLOCK = 5_000
#: fewest rendered values (see :func:`_rendered_p`) each row range must hold
#: for a CSV to be split over processes.  On a 2-vCPU VM a split of 50,000
#: values in all lost to one process, 74,000 won by 3 ms of 23 ms and 124,000
#: by 22 ms of 63 ms: below that the fork and the join of the part cost about
#: what the second CPU saves
_RANGE_MIN_VALUES = 50_000


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
    # np.take gathers the layout rows about twice as fast as indexing does
    index = np.take(tab.layout, (code * 17 + 16 - trailing) * 2 + np.signbit(values), axis=0)
    index += np.arange(0, source.size, source.shape[1])[:, None]
    text = source.reshape(-1)[index]
    for j in fallback.tolist():
        fixed = ("%.17g" % values[j]).encode("ascii")
        text[j, : len(fixed)] = np.frombuffer(fixed, dtype=np.uint8)
        text[j, len(fixed) : _TEXT] = 0
    text = text.reshape(-1)
    return text[text != 0]


def _rendered_p(photon_dist: np.ndarray) -> int:
    """How many P columns the kernel renders: up to the last one with a
    nonzero bit pattern in some row (a -0.0 has one, so it is rendered '-0')."""
    used = np.flatnonzero(np.bitwise_or.reduce(photon_dist.view(np.uint64), axis=0))
    return int(used[-1]) + 1 if used.size else 0


def _csv_rows(traj: Trajectory, omega: float, n_p: int, start: int, stop: int):
    """The canonical CSV bytes of rows start .. stop - 1 of a trajectory, in
    blocks rendered by :func:`_format_block`.

    The kernel renders the first ``n_p`` P columns (see :func:`_rendered_p`);
    the others are +0.0 throughout, and each row end gets their ',0' text."""
    period = 2.0 * math.pi / omega
    row_end = b",0" * (traj.photon_dist.shape[1] - n_p) + b"\n"
    n_cols = 4 + n_p
    rows = max(1, _CSV_BLOCK // n_cols)
    values = np.empty((min(rows, stop - start), n_cols))
    source = np.zeros((values.size, 32), dtype=np.uint8)
    for offset, char in _SOURCE_CONSTANTS.items():
        source[:, offset] = ord(char)
    separators = source.reshape(*values.shape, 32)[..., _SEP]
    separators[:] = ord(",")
    separators[:, -1] = ord("\n")
    for first in range(start, stop, rows):
        block = slice(first, min(first + rows, stop))
        n = block.stop - first
        values[:n, 0] = traj.times[block] / period
        values[:n, 1] = traj.inversion[block]
        values[:n, 2] = traj.norm[block]
        values[:n, 3] = traj.energy[block]
        values[:n, 4:] = traj.photon_dist[block, :n_p]
        text = _format_block(values[:n].reshape(-1), source[: n * n_cols])
        # the kernel writes a LF at row ends only
        yield text if row_end == b"\n" else text.tobytes().replace(b"\n", row_end)


def _usable_cpus() -> int | None:
    """How many CPUs this process may run on; None where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None


def _row_bounds(n_rows: int, n_cols: int) -> list:
    """Bounds of the contiguous row ranges a CSV is rendered in: one per
    usable CPU, each of at least :data:`_RANGE_MIN_VALUES` rendered values,
    and a single range where this process cannot fork safely: without
    ``os.fork``, off the main thread, or beside another Python thread."""
    forkable = (
        hasattr(os, "fork") and threading.active_count() == 1
        and threading.current_thread() is threading.main_thread()
    )
    cpus = (_usable_cpus() or 1) if forkable else 1
    parts = max(1, min(cpus, n_rows, n_rows * n_cols // _RANGE_MIN_VALUES))
    return [n_rows * i // parts for i in range(parts + 1)]


def _fork_worker(traj: Trajectory, omega: float, n_p: int, start: int, stop: int,
                 path: str) -> tuple:
    """Fork a process that renders rows start .. stop - 1 of ``traj`` (see
    :func:`_csv_rows`) into a part file beside ``path``; returns (pid, error
    pipe, part fd).

    The part is unlinked as soon as it is created, so no failure can leave
    it behind; the parent reads it through its fd.  A worker that fails
    writes its error text into the pipe and exits nonzero, and one whose
    parent is gone stops at its next kernel block."""
    part_path = _temp_path(path)
    fds = [os.open(part_path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)]
    parent = os.getpid()
    try:
        os.unlink(part_path)
        fds += os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 warns when a process with other OS threads forks.
            # Those are OpenBLAS's: its pthread_atfork handler stops its pool,
            # and workers make no BLAS call
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    part, read, write = fds
    if pid == 0:  # the worker: it never returns into the caller
        status = 1
        try:
            with open(part, "wb", closefd=False) as out:
                for text in _csv_rows(traj, omega, n_p, start, stop):
                    if os.getppid() != parent:  # killed: nobody joins this part
                        os._exit(status)
                    out.write(text)
            status = 0
        except BaseException as exc:
            os.write(write, f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        finally:
            os._exit(status)
    os.close(write)
    return pid, read, part


def _join(workers: list, out: int) -> str:
    """Wait for the first of ``workers`` to end and take it off the list,
    then append all of its part to ``out`` in 1 MiB chunks; returns its
    error text instead if it failed, else ''."""
    *_, pid, pipe, part = workers[0]
    text = b""
    while chunk := os.read(pipe, 1 << 16):
        text += chunk
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del workers[0]  # reaped: emit_csv's cleanup must not kill it
    try:
        if status != 0:
            return text.decode(errors="replace") or f"exit status {status}"
        size, offset = os.fstat(part).st_size, 0
        while offset < size:
            offset += os.write(out, os.pread(part, min(size - offset, 1 << 20), offset))
        return ""
    finally:
        os.close(pipe)
        os.close(part)


def emit_csv(traj: Trajectory, path: str, *, omega: float) -> None:
    """Stream a trajectory CSV into an atomic write, its rows rendered in
    contiguous ranges, one per usable CPU (see :func:`_row_bounds`).

    This is the one place that decides a CSV: it counts the P columns the
    kernel renders (:func:`_rendered_p`) once, sizes the ranges on them and
    hands every range the count.  Forked workers render every range but the
    first into parts beside ``path`` while this process writes the header and
    the first range, then appends each part in row order as its worker ends and
    renames once.  A worker's failure raises :class:`OSError` with its text.  On
    every path each worker is reaped and no temp file or part is left."""
    n_rows, n_max = traj.photon_dist.shape
    n_p = _rendered_p(traj.photon_dist)
    bounds = _row_bounds(n_rows, 4 + n_p)
    _kernel_tables()  # built once, before any fork, for every worker
    workers = []  # (first row, last row, pid, pipe, part), in row order
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            workers.append((start, stop - 1, *_fork_worker(traj, omega, n_p, start, stop, path)))
        with _atomic_write(path) as handle:
            header = "t_periods,W,norm,energy" + "".join(f",P{i}" for i in range(n_max))
            handle.write(f"{header}\n".encode())
            handle.writelines(_csv_rows(traj, omega, n_p, 0, bounds[1]))
            handle.flush()
            while workers:
                first, last = workers[0][:2]
                if error := _join(workers, handle.fileno()):
                    raise OSError(f"CSV worker for rows {first}..{last} of {path}: {error}")
    finally:
        if workers:
            import signal  # needed only when an emit fails

            for _, _, pid, pipe, part in workers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(pipe)
                os.close(part)


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
    Warns when the detuning delta_n = omega_eg - n omega leaves the
    |delta_n| < omega/10 window.
    """
    omega = config.omega
    lambda_g, lambda_e = config.lambda_g * omega, config.lambda_e * omega
    omega0 = config.omega0
    if config.n is not None:
        omega0 = resonant_omega0(config.n, omega=omega, lambda_g=lambda_g, lambda_e=lambda_e)
    params = ModelParams(
        omega=omega, omega0=omega0, lambda_g=lambda_g, lambda_e=lambda_e,
        lambda_eg=config.lambda_eg * omega,
    )
    n = config.n if config.n is not None else max(1, int(round(omega_eg(params) / omega)))
    delta = omega_eg(params) - n * params.omega
    if abs(delta) > RESONANCE_WINDOW * params.omega:
        warnings.warn(
            f"detuning |delta_{n}| = {abs(delta):.3g} is not small against "
            f"omega = {params.omega:.3g}; secular results are unreliable",
            RWAValidityWarning,
            stacklevel=2,
        )
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
    psi0: np.ndarray
    projection: tuple | None  # project_secular's, when the secular route runs


def plan_run(config: ScenarioConfig, output_dir: str | None = None) -> RunPlan:
    """Everything :func:`run_scenario` settles before any compute.

    Resolves the files the run writes (the manifest, plus one CSV per
    propagator) with :func:`resolve_outputs`, resolves the model parameters,
    counts the samples (:func:`~mprabi.dynamics.sample_count`, with no grid
    built) and prepares the initial state.  When the secular route runs, it
    keeps the state's :func:`~mprabi.dynamics.project_secular` projection,
    which :func:`~mprabi.dynamics.evolve_rwa` then expands.  Raises one
    :class:`ConfigError` with every unusable output path, a sample count, a
    state or trajectories too large to allocate, and a start state that does
    not fit the truncation or the secular basis (an order-2 basis off the
    resonance included).  ``mprabi validate`` runs this call, so it rejects
    exactly what a run rejects before compute.
    """
    written = ["manifest"] + [key for route, key in _CSV_KEYS.items() if route in config.propagators]
    outputs, problems = resolve_outputs(config, written, output_dir)
    params, n = resolve_params(config)
    period = 2.0 * math.pi / params.omega
    samples = 0  # stays 0 when the count is the problem
    try:
        samples = sample_count(config.t_end * period, config.dt * period, config.sample_every)
    except (ValueError, OverflowError) as exc:
        problems.append(f"t_end / dt = {config.t_end / config.dt:.6g} steps is too many: {exc}")
    initial = InitialStateSpec(config.initial_kind, config.n_photons, config.mean_photons)
    try:
        psi0 = prepare_initial(initial, params, FockSpace(config.n_max))
        secular = "rwa" in config.propagators
        projection = project_secular(params, n, psi0, config.order) if secular else None
    except MemoryError as exc:
        raise ConfigError([*problems, f"n_max = {config.n_max} is too large: {exc}"]) from exc
    except (ValueError, ProjectionError) as exc:  # TruncationError is a ValueError
        raise ConfigError([*problems, str(exc)]) from exc
    try:  # the arrays the routes then hold at once; never written, so no page is touched
        np.empty((len(config.propagators), samples, config.n_max + 4))
    except (ValueError, MemoryError) as exc:
        problems.append(
            f"t_end / dt / sample_every = {samples} samples x n_max = {config.n_max} "
            f"is too large: {exc}"
        )
    if problems:
        raise ConfigError(problems)
    return RunPlan(outputs, params, n, psi0, projection)


def run_scenario(
    config: ScenarioConfig, *, output_dir: str | None = None
) -> tuple[Trajectory, dict]:
    """Execute one scenario end to end.

    Settles the run with :func:`plan_run`, runs the requested propagators,
    and writes the CSV trajectories plus the manifest, which it returns as
    the dict it wrote.
    Numerical validity (norm drift of every trajectory, truncation occupancy,
    the initial weight each expansion pruned beside the bound it sets on any
    W or P value), every warning raised on the way and the time of each stage
    of :data:`STAGES` (0 for one not run) are recorded in the manifest; the
    returned trajectory is the numeric one when it ran, else the secular one.
    A run that aborts on norm drift or out of memory in compute writes no
    CSV, and one that fails its validity checks or a CSV write keeps the
    CSVs it wrote; either way the manifest says ``"status": "failed"`` with
    the error text and lists the files on disk, and the error is raised once
    the manifest is written (or without it, if that write fails too).
    """
    start = time.perf_counter()
    wall = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    timings = dict.fromkeys(STAGES, 0.0)

    trajs = {}  # by route, in the order of _CSV_KEYS
    error = None
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        with _timed(timings, "plan"):
            outputs, params, n, psi0, projection = plan_run(config, output_dir)
        period = 2.0 * math.pi / params.omega
        t_end, dt = config.t_end * period, config.dt * period
        try:
            if "numeric" in config.propagators:
                with _timed(timings, "build"):
                    hamiltonian = build_full(params, FockSpace(config.n_max))
                with _timed(timings, "numeric"):
                    trajs["numeric"] = evolve_numeric(
                        hamiltonian, psi0, t_end, dt, sample_every=config.sample_every,
                        period=period,
                    )
            if projection is not None:
                with _timed(timings, "rwa"):
                    trajs["rwa"] = evolve_rwa(params, n, projection, t_end, dt, config.sample_every)
        except NormDriftError as exc:
            error = exc
        except MemoryError as exc:  # an allocation the plan's probe did not foresee
            error = MemoryError(f"out of memory during compute: {exc}")
        v_leading = coupling_element(params, n, n)
        caught = sorted({f"{w.category.__name__}: {w.message}" for w in log})

    norm_ok = error is None and all(
        bool(np.max(np.abs(t.norm - 1.0)) <= NORM_TOL) for t in trajs.values()
    )
    truncation_ok = all(t.truncation_ok for t in trajs.values())
    if error is None and not (norm_ok and truncation_ok):
        error = ValidityError(
            f"run finished but failed validity checks (norm_ok={norm_ok}, "
            f"truncation_ok={truncation_ok}); see manifest {outputs['manifest']}"
        )
    rabi = 2.0 * abs(v_leading)
    written = {"manifest": outputs["manifest"]}
    if not isinstance(error, (NormDriftError, MemoryError)):  # an aborted run has no CSV
        try:
            with _timed(timings, "emit"):
                for route, traj in trajs.items():
                    key = _CSV_KEYS[route]
                    emit_csv(traj, outputs[key], omega=params.omega)
                    written[key] = outputs[key]
        except OSError as exc:
            error = exc

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
        "error": None if error is None else str(error),
        "code_version": __version__,
        "environment": _environment(),
        "wall_clock_utc": wall,
        "timings": {stage: round(seconds, 6) for stage, seconds in timings.items()},
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    }
    try:
        with _atomic_write(outputs["manifest"]) as handle:
            handle.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    except OSError:
        if error is None:
            raise
    if error is not None:
        raise error
    return next(iter(trajs.values())), manifest
