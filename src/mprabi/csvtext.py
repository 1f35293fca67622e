"""Trajectory CSV text, and the atomic write of every output file.

Trajectory CSV layout: header row then one row per sample with columns
``t_periods, W, norm, energy, P0 .. P{n_max-1}``.  Times are in units of the
``period`` :func:`emit_csv` takes (a run's oscillator period), each float is
written as ``'%.17g' % x`` writes it (17 significant digits), rows end in LF,
and the ``norm`` column holds the squared norm (total probability), so the P
columns of a row sum to it identically.

Files are written atomically (temp file in the target directory, then
rename), with the mode ``open(path, "w")`` would give them.  CSV text is
rendered in blocks of rows by a vectorized kernel and streamed to disk, so no
copy of the whole CSV text is ever held in memory; a CSV large enough to
repay a fork is rendered in row ranges by forked workers (see
:func:`emit_csv`), to the same bytes.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import signal
import tempfile
import threading
import warnings
from typing import NamedTuple

import numpy as np

from .dynamics import Trajectory

#: the signals that interrupt a run: the CLI raises them in the main thread,
#: and CSV workers never take them, so that the run alone decides its ending
INTERRUPT_SIGNALS = (signal.SIGINT, signal.SIGTERM)
#: the exit status of a CSV worker whose part holds its error text, not rows
_ERROR_STATUS = 2


@contextlib.contextmanager
def _interrupts_held():
    """Hold :data:`INTERRUPT_SIGNALS` over the ``with`` block: one that comes
    then reaches its handler as the block ends.  The handlers are swapped, as
    a signal mask holds nothing: OpenBLAS's thread takes a signal the main
    thread blocks, and CPython runs its handler all the same.  Off the main
    thread, which alone runs handlers, there is nothing to hold."""
    caught, saved = [], {}
    main = threading.current_thread() is threading.main_thread()
    try:
        for signum in INTERRUPT_SIGNALS if main else ():
            saved[signum] = signal.signal(signum, lambda num, _: caught.append(num))
        yield
    finally:
        for signum, handler in saved.items():
            signal.signal(signum, handler)
        for signum in caught:
            signal.raise_signal(signum)


@contextlib.contextmanager
def _atomic_write(path: str, done=lambda: None):
    """A binary file whose bytes appear at ``path`` only once the ``with``
    block completes, so that no partial file is ever visible there.

    The temp file is created with mode 0o666 under the process umask, the
    mode ``open(path, "w")`` would give ``path``.  Interrupts are held
    (:func:`_interrupts_held`) from its open until its file object is on the
    stack that closes it, and over the rename and ``done()``, run right after."""
    tmp_path = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp_{os.urandom(8).hex()}~")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        with contextlib.ExitStack() as stack:
            with _interrupts_held():
                handle = stack.enter_context(os.fdopen(os.open(tmp_path, flags, 0o666), "wb"))
            yield handle
        with _interrupts_held():
            os.replace(tmp_path, path)
            done()
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
#: for a CSV to be split over processes.  On a 2-vCPU VM, in 12 alternating
#: fresh-process runs each, a split rendered 124,000 values in 35 ms against
#: 51 ms in one process and 853,000 in 133 against 177 ms, and lost on 4,200
#: values (10 against 4 ms); no shipped CSV falls between those sizes
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


def _csv_rows(traj: Trajectory, period: float, n_p: int, start: int, stop: int):
    """The canonical CSV bytes of rows start .. stop - 1 of a trajectory, its
    times in units of ``period``, in blocks rendered by :func:`_format_block`.

    The kernel renders the first ``n_p`` P columns (see :func:`_rendered_p`);
    the others are +0.0 throughout, and each row end gets their ',0' text."""
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


def _fork_worker(traj: Trajectory, period: float, n_p: int, start: int, stop: int,
                 path: str) -> tuple:
    """Fork a process that renders rows start .. stop - 1 of ``traj`` (see
    :func:`_csv_rows`) into a part file beside ``path``; returns (pid, part).

    The part has no name (``O_TMPFILE``, else unlinked once created), so no
    failure can leave it behind.  A worker that fails replaces its rows with
    its error text and exits :data:`_ERROR_STATUS`, and one whose parent is
    gone stops at its next kernel block.  The caller holds interrupts over
    the fork and the worker never lets them go: its parent takes them, and
    kills it."""
    part = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
    parent = os.getpid()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns when a process with other OS threads forks.
            # Those are OpenBLAS's: its pthread_atfork handler stops its pool,
            # and workers make no BLAS call
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        part.close()
        raise
    if pid == 0:  # the worker: it never returns into the caller
        status = 1
        try:
            for text in _csv_rows(traj, period, n_p, start, stop):
                if os.getppid() != parent:  # killed: nobody joins this part
                    os._exit(status)
                part.write(text)
            part.flush()
            status = 0
        except BaseException as exc:
            # past the file object, whose buffer may hold rows it failed to write
            os.ftruncate(part.fileno(), 0)
            os.pwrite(part.fileno(), f"{type(exc).__name__}: {exc}".encode(errors="replace"), 0)
            status = _ERROR_STATUS
        finally:
            os._exit(status)
    return pid, part


def _join(workers: list, out: int) -> str:
    """Wait for the first of ``workers`` to end and take it off the list,
    then append all of its part to ``out`` in 1 MiB chunks; returns its
    error text instead if it failed, else ''."""
    *_, pid, part = workers[0]
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del workers[0]  # reaped: emit_csv's cleanup must not kill it
    with part:
        fd, offset = part.fileno(), 0
        size = os.fstat(fd).st_size
        if status == _ERROR_STATUS:
            return os.pread(fd, size, 0).decode(errors="replace")
        if status != 0:
            return f"exit status {status}"
        while offset < size:
            offset += os.write(out, os.pread(fd, min(size - offset, 1 << 20), offset))
        return ""


def emit_csv(traj: Trajectory, path: str, *, period: float, done=lambda: None) -> None:
    """Stream a trajectory CSV (times in units of ``period``) into an atomic
    write, rendered in row ranges, one per usable CPU (:func:`_row_bounds`).

    This is the one place that decides a CSV: it counts the P columns the
    kernel renders (:func:`_rendered_p`) once, sizes the ranges on them and
    hands every range the count.  Forked workers render every range but the
    first into parts beside ``path`` while this process writes the header and
    the first range, then appends each part in row order as its worker ends and
    renames once, with ``done`` as :func:`_atomic_write` takes it.  A worker's
    failure raises :class:`OSError` with its text.  On every path each worker
    is reaped and no temp file or part is left."""
    n_rows, n_max = traj.photon_dist.shape
    n_p = _rendered_p(traj.photon_dist)
    bounds = _row_bounds(n_rows, 4 + n_p)
    _kernel_tables()  # built once, before any fork, for every worker
    workers = []  # (first row, last row, pid, part), in row order
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            with _interrupts_held():  # until the worker is listed for the cleanup below
                worker = _fork_worker(traj, period, n_p, start, stop, path)
                workers.append((start, stop - 1, *worker))
        with _atomic_write(path, done) as handle:
            header = "t_periods,W,norm,energy" + "".join(f",P{i}" for i in range(n_max))
            handle.write(f"{header}\n".encode())
            handle.writelines(_csv_rows(traj, period, n_p, 0, bounds[1]))
            handle.flush()
            while workers:
                first, last = workers[0][:2]
                if error := _join(workers, handle.fileno()):
                    raise OSError(f"CSV worker for rows {first}..{last} of {path}: {error}")
    finally:
        for _, _, pid, part in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            part.close()
