"""The CSV writer behind the scenario runner's artifacts.

write_csvs writes CSV files drawn from one set of named columns in one
pass over blocks of rows, with the bytes of np.savetxt with fmt "%.17g"
("%d" for integer columns) written file by file. A block reader gives the
columns of each block of rows as arrays; each value is formatted once and
its text goes into every file that has its column.

The float columns of a block are formatted together by numpy. A
double-double product (Dekker, 1971) gives each value's correctly rounded
17-digit significand, SWAR arithmetic on uint64 makes its digits, and the
%g rules lay them out in NUL-padded fields that are joined into rows with
one transpose and one bytes.translate. Values whose rounding the product
cannot prove (a fraction within 1e-6 of a half), values outside the power
table, zeros, subnormals, inf and nan go through '%.17g' % v. The table is
built, and checked against '%.17g' on a fixed set of values, on first use;
if any of them differ, every value goes through '%.17g'.

The rows are split into contiguous shares, one per usable CPU, and a child
forked after the rows exist formats each share into unnamed temporary
files, which this process appends in order. The usable CPUs are those of
the process's affinity mask: in a sweep lane (xbstab.lanes), the lane's
own share of the CPUs. It formats in-process only where os.fork does not
exist. The bytes do not depend on the split.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import model

# fewest rows a share takes when there are several. fork plus wait took
# 1.7-2.4 ms in the median (6.3 ms at worst) for a 47 MB process on a
# 2-CPU x86 VM, and a share of 8192 rows takes tens of ms to format
_MIN_SHARE_ROWS = 8192
# bytes of the array a writer child allocates and frees before its first
# block. glibc serves a request of 128 KB or more from its own mapping and,
# when such a mapping is freed, raises that threshold to its size and the
# heap's trim threshold to twice that (mallopt(3), M_MMAP_THRESHOLD). Most
# of a block's arrays are 160-550 KB at 2,048 rows a block, so without
# this each block can map fresh pages, and how many depends on what the
# parent freed before the fork: the two children on the shipped scenario
# took 7,400-9,100 minor faults. After it, every block's arrays reuse the
# heap pages of the first block (5,240-5,400 faults at 2,048 rows a block,
# 7,710 at model._BLOCK_ROWS = 4,096 and 12,640 at 8,192). np.empty
# touches no page of it.
_HEAP_WARMUP_BYTES = 8 << 20
# bytes asked of one os.copy_file_range call (Linux copies at most about
# 2 GiB per call); a share's file takes as many calls as it needs
_COPY_BYTES = 1 << 30
# decimal exponents E covered by the power table of 10**(16 - E): Veltkamp
# splits of the table and of values below 1e298 stay finite, and the low
# parts of the table stay normal doubles
_E_LO, _E_HI = -284, 299
_SPLIT = 134217729.0          # 2**27 + 1
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_U = np.uint64
_ASCII = _U(0x3030303030303030)
# the self-check: a rounding carry (1e-78 lies below 10**-78), powers of
# ten and their neighbours, both notations, a halfway value and every
# fallback kind
_CHECK = (0.1, 1 / 3, -2.5, 1e-4, 9.9999999999999991e-5, 1e16, 1e17,
          1e-78, 9.9999999999999996e-39, 1e15 + 0.25,
          123456789.12345679, 2.0 ** 60, -1e-300, 1.7976931348623157e308,
          1e22, 1e23, 0.30000000000000004, -0.0, 5e-324, float("inf"),
          float("nan"))
_POW = None                   # [table or None], set by _power_table


def _power_table():
    """Rows (hi, lo, hi's Veltkamp halves) of 10**(16 - E) for E from _E_LO
    to _E_HI: hi is 10**(16 - E) rounded, lo the rounded remainder, both
    from Python ints. Built on first use; None if the self-check found a
    value whose bytes differ from '%.17g'."""
    global _POW
    if _POW is None:
        rows = []
        for k in range(16 - _E_LO, 15 - _E_HI, -1):
            num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
            hi = num / den          # int division rounds correctly
            n, d = hi.as_integer_ratio()
            c = _SPLIT * hi
            rows.append((hi, (num * d - n * den) / (den * d),
                         c - (c - hi), hi - (c - (c - hi))))
        _POW = [np.array(rows)]
        x = np.array(_CHECK)
        if _join([_float_fields(x)], x.size) != b"".join(
                b"%.17g\n" % v for v in _CHECK):
            _POW[0] = None
    return _POW[0]


def _scale(x, E, table):
    """x * 10**(16 - E) as a normalized double-double (hi, lo), by
    Dekker's product of x with the table's pair."""
    ph, pl, phh, phl = np.take(table, E - _E_LO, axis=0, mode="clip").T
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    p = x * ph
    lo = (((xh * phh - p) + xh * phl + xl * phh) + xl * phl) + x * pl
    hi = p + lo
    return hi, lo - (hi - p)


def _digits8(v):
    """The 8 decimal digits of each v < 10**8 as the bytes of a uint64,
    the most significant in the lowest byte."""
    hi = (v * _U(109951163)) >> _U(40)                  # v // 10**4
    v = hi | ((v - hi * _U(10000)) << _U(32))
    t = ((v * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)
    v = t | ((v - t * _U(100)) << _U(16))
    t = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return t | ((v - t * _U(10)) << _U(8))


def _printf(values: np.ndarray) -> list:
    """'%.17g' % v of each value, as bytes: the formatter's fallback."""
    return [b"%.17g" % v for v in values.tolist()]


def _text_fields(texts: list) -> np.ndarray:
    """(width, n) uint8 array of byte strings, NUL-padded."""
    w = max(map(len, texts))
    return np.frombuffer(b"".join(s.ljust(w, b"\0") for s in texts),
                         np.uint8).reshape(-1, w).T


def _float_fields(x: np.ndarray) -> np.ndarray:
    """(width, n) uint8 array whose column i is '%.17g' % x[i], padded
    with NULs: sign, '0.' and zeros for 1e-4 <= |x| < 1, 17 digit rows
    with a row for the point wherever some value has one, exponent."""
    table = _power_table()
    if table is None:
        return _text_fields(_printf(x))
    n = x.size
    ax = np.abs(x)
    fast = (ax >= 1e-282) & (ax < 1e298)
    xs = np.where(fast, ax, 1.0)
    E = np.floor(np.log10(xs)).astype(np.int64)
    hi, lo = _scale(xs, E, table)
    for _ in range(3):
        # E is right when the unrounded y = x * 10**(16 - E) is in
        # [1e16, 1e17); log10 may miss by one next to a power of ten
        up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        idx = np.flatnonzero(up | down)
        if not idx.size:
            break
        E[idx] += up[idx].astype(np.int64) - down[idx]
        hi[idx], lo[idx] = _scale(xs[idx], E[idx], table)
    fast[idx] = False
    floor = np.floor(lo)
    frac = lo - floor
    fast &= np.abs(frac - 0.5) > 1e-6
    N = (hi.astype(np.int64) + floor.astype(np.int64)
         + (frac > 0.5)).astype(np.uint64)
    carry = N == _U(10 ** 17)
    N[carry] = _U(10 ** 16)
    E += carry
    lead = N // _U(10 ** 16)
    r = N - lead * _U(10 ** 16)
    words = np.empty((n, 2), "<u8")
    high = r // _U(10 ** 8)
    words[:, 0] = _digits8(high)
    words[:, 1] = _digits8(r - high * _U(10 ** 8))
    tz = (64 - np.frexp(words.astype(float))[1]) >> 3   # trailing zeros
    last = 16 - np.where(tz[:, 1] == 8, 8 + tz[:, 0], tz[:, 1])
    sci = (E < -4) | (E > 16)
    q = np.where(sci, 0, E)             # the point follows digit q
    keep = np.maximum(last, q)          # the last digit written
    words[:, 0] = (words[:, 0] | _ASCII) & np.take(_MASKS, keep, mode="clip")
    words[:, 1] = (words[:, 1] | _ASCII) & np.take(_MASKS, keep - 8,
                                                    mode="clip")
    digits = words.view(np.uint8).T
    point = np.where((q >= 0) & (q < last), q, -1)
    places = np.flatnonzero(np.bincount(point + 1, minlength=17)[1:17])
    neg, small, slow = np.signbit(x), q < 0, np.flatnonzero(~fast)
    signs, smalls, exps = neg.any(), small.any(), np.flatnonzero(sci)
    F = np.zeros((max(signs + 5 * smalls + 17 + len(places)
                      + 5 * (exps.size > 0), 24 * (slow.size > 0)), n),
                 np.uint8)
    if signs:
        np.multiply(neg, np.uint8(45), out=F[0])
    if smalls:                          # 0.ddd to 0.000ddd
        for j, (c, top) in enumerate(zip(b"0.000", (0, 0, -2, -3, -4))):
            np.multiply(small & (E <= top), np.uint8(c), out=F[signs + j])
    r = signs + 5 * smalls
    F[r] = lead + _U(48)
    d = 1
    for p in places.tolist() + [16]:
        F[r + 1:r + 2 + p - d] = digits[d - 1:p]
        r += 1 + p - d
        if p < 16:
            r += 1
            np.multiply(point == p, np.uint8(46), out=F[r])
        d = p + 1
    if exps.size:
        e = np.abs(E[exps])
        F[r + 1:r + 6, exps] = [np.full(e.size, 101), 44 - np.sign(E[exps]),
                                np.where(e > 99, 48 + e // 100, 0),
                                48 + e // 10 % 10, 48 + e % 10]
    if slow.size:
        text = _text_fields(_printf(x[slow]))
        F[:, slow] = 0
        F[:len(text), slow] = text
    return F


def _int_fields(col: np.ndarray) -> np.ndarray:
    """(width, n) uint8 array of str() of an integer column, NUL-padded;
    each distinct value is converted once."""
    values, inverse = np.unique(col, return_inverse=True)
    return _text_fields([str(v).encode() for v in values.tolist()])[
        :, inverse]


def _join(fields: list, n: int) -> bytes:
    """The n CSV rows whose columns are `fields`, (width, n) arrays."""
    comma = np.full((1, n), ord(","), np.uint8)
    parts = [part for field in fields for part in (field, comma)]
    parts[-1] = np.full((1, n), ord("\n"), np.uint8)
    return np.concatenate(parts).T.tobytes().translate(None, b"\0")


def _usable_cpus() -> int:
    """The number of CPUs in this process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share_bounds(n: int) -> list:
    """Contiguous (lo, hi) row shares: one per usable CPU, none smaller
    than _MIN_SHARE_ROWS unless there is only one."""
    shares = max(1, min(_usable_cpus(), n // _MIN_SHARE_ROWS))
    return [(n * k // shares, n * (k + 1) // shares) for k in range(shares)]


def _format_rows(block, names: list, outs: list, lo: int, hi: int):
    """Write rows lo:hi, read by block() model._BLOCK_ROWS at a time, into
    each (binary file, column indices into `names`) of `outs`: the float
    columns of a block are formatted in one call of _float_fields, and
    every file's rows are joined from the same fields."""
    size = model._BLOCK_ROWS
    for b_lo in range(lo, hi, size):
        n = min(b_lo + size, hi) - b_lo
        columns = block(b_lo, b_lo + n)
        floats = [name for name in names
                  if columns[name].dtype.kind not in "iu"]
        fields = {name: _int_fields(columns[name])
                  for name in names if name not in floats}
        if floats:
            F = _float_fields(np.concatenate(
                [columns[name] for name in floats], dtype=np.float64))
            # rows that are NUL throughout a column would only be deleted
            # again by _join: each column keeps the rows it uses
            used = F.reshape(len(F), len(floats), n).any(axis=2)
            for k, name in enumerate(floats):
                fields[name] = F[np.flatnonzero(used[:, k]),
                                 k * n:(k + 1) * n]
        for fh, idx in outs:
            fh.write(_join([fields[names[i]] for i in idx], n))


def _fork_share(block, names: list, outs: list, lo: int, hi: int) -> int:
    """Format rows lo:hi into `outs` in a forked child; returns its pid.

    The child first frees one array of _HEAP_WARMUP_BYTES, so that its
    block arrays reuse one set of heap pages. It leaves only through
    os._exit, with status 0 once its files are flushed and 1 on any
    exception, so no buffer, atexit hook or finally block it inherited
    runs a second time."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        np.empty(_HEAP_WARMUP_BYTES, np.uint8)
        _format_rows(block, names, outs, lo, hi)
        for fh, _ in outs:
            fh.flush()
        status = 0
    except BaseException as exc:
        try:
            os.write(2, f"xbstab: CSV rows {lo}-{hi}: {exc!r}\n"
                     .encode("utf-8", "replace"))
        except BaseException:
            pass
    finally:
        os._exit(status)


def _append(src, dst):
    """Append the whole of the file src to the binary file dst: in the
    kernel through os.copy_file_range where os has it, and through Python
    buffers (shutil.copyfileobj) elsewhere, or from where it failed."""
    done = 0
    if hasattr(os, "copy_file_range"):
        dst.flush()
        try:
            while n := os.copy_file_range(src.fileno(), dst.fileno(),
                                          _COPY_BYTES, done):
                done += n
        except OSError:
            pass
    src.seek(done)
    shutil.copyfileobj(src, dst)


def write_csvs(n: int, block, files: list):
    """Write CSV files of n rows drawn from one set of named columns.

    block(lo, hi) returns a dict that maps each column name of `files` to
    a 1-D array of rows lo:hi, which each child calls for the blocks it
    formats; integer arrays are written with str(), float arrays with
    "%.17g". `files` lists (path, column names) pairs; each file gets a
    header of its column names and one row per sample. The bytes equal
    those of np.savetxt with fmt "%.17g" ("%d" for the integer columns),
    delimiter "," and no comment prefix, however the rows are split.

    The rows are split by _share_bounds into contiguous shares. This
    process opens the files, writes their headers and opens one unnamed
    temporary file per CSV file and share in that file's directory. Then
    a child forked for each share formats it into its temporary files,
    and this process formats nothing: it waits for every child and
    appends the shares in order (_append). The children share what block
    reads copy-on-write, so nothing is pickled; each builds and checks the
    formatter's power table, and the formatter's arrays live only in
    them. A child that fails
    raises OSError here; on any failure the CSV files are removed, and no
    temporary file outlives the call. Without os.fork the rows are
    formatted in this process, straight into the files.

    The children's memory and CPU time are not this process's: VmHWM and
    thread CPU time leave them out, RUSAGE_CHILDREN counts them. On Python
    3.12 and later os.fork warns when the process has threads, as numpy's
    BLAS pool may, and a child forked from a threaded process can deadlock
    on a lock another thread held. Neither has been seen or ruled out:
    test_forked_write_with_warnings_as_errors has run on Python 3.11 only.
    """
    names = list(dict.fromkeys(name for _, cols in files for name in cols))
    if n == 0:
        raise ValueError("cannot write CSV files for an empty trajectory")
    idx = [[names.index(c) for c in cols] for _, cols in files]
    opened = []
    try:
        with ExitStack() as stack:
            finals = []
            for path, cols in files:
                finals.append(stack.enter_context(open(path, "wb")))
                opened.append(path)
                finals[-1].write((",".join(cols) + "\n").encode("utf-8"))
            if not hasattr(os, "fork"):
                _format_rows(block, names, list(zip(finals, idx)), 0, n)
                return
            for fh in finals:
                fh.flush()
            bounds = _share_bounds(n)
            shares = [[stack.enter_context(
                          tempfile.TemporaryFile(dir=Path(path).parent))
                       for path, _ in files] for _ in bounds]
            pids = []
            try:
                for (lo, hi), tmps in zip(bounds, shares):
                    pids.append(_fork_share(block, names,
                                            list(zip(tmps, idx)), lo, hi))
            finally:
                statuses = [os.waitpid(pid, 0)[1] for pid in pids]
            for (lo, hi), status in zip(bounds, statuses):
                if status != 0:
                    raise OSError(f"the CSV writer's child for rows "
                                  f"{lo}-{hi} ended with exit code "
                                  f"{os.waitstatus_to_exitcode(status)}")
            for fh, tmps in zip(finals, zip(*shares)):
                for tmp in tmps:
                    _append(tmp, fh)
    except BaseException:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise
