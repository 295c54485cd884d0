"""The CSV writer behind the scenario runner's artifacts.

write_csvs writes CSV files drawn from one set of columns in one pass over
blocks of rows: each value is formatted once ("%.17g", integers in
decimal) and the same string goes into every file that has its column, so
the bytes are those of np.savetxt with the same formats, written file by
file. The rows are split into contiguous shares, one per usable CPU: this
process formats the first share straight into the files, and a child
forked after the columns exist formats each other share into unnamed
temporary files, which are appended in order. With one usable CPU, no
os.fork, or too few rows for a second share, the writer runs in this
process alone. The bytes do not depend on the split.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import ExitStack
from pathlib import Path

# rows per block. A block's strings are all it holds besides the
# trajectory; speed is flat from 64 to 1024 rows, while 512 rows already
# lifted the peak memory of a short thinned run above that of np.savetxt
_BLOCK_ROWS = 256
# fewest rows a forked share takes. fork plus wait took 1.7-2.4 ms in the
# median (6.3 ms at worst) for a 47 MB process on a 2-CPU x86 VM, against
# 8-11 us per formatted row of the three files. A fork also faults about
# 128 kB of libc into this process: with 2048-row shares a thinned 2 s run
# (5,900 rows) forked and peaked 0.1-0.3 MB above the in-process writer to
# save 25-30 ms. A share of 8192 rows (65-90 ms) pays for its child many
# times over, and shorter runs stay in-process
_MIN_SHARE_ROWS = 8192


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share_bounds(n: int) -> list:
    """Contiguous (lo, hi) row shares: one per usable CPU, none smaller
    than _MIN_SHARE_ROWS, a single one without os.fork."""
    shares = 1
    if hasattr(os, "fork"):
        shares = max(1, min(_usable_cpus(), n // _MIN_SHARE_ROWS))
    return [(n * k // shares, n * (k + 1) // shares) for k in range(shares)]


def _format_rows(columns: dict, names: list, outs: list, lo: int, hi: int):
    """Write rows lo:hi into each (binary file, column indices into
    `names`) of `outs`, in blocks of _BLOCK_ROWS: each value of a
    block is formatted once and its string joined into the rows of every
    file that has its column."""
    for b_lo in range(lo, hi, _BLOCK_ROWS):
        b_hi = min(b_lo + _BLOCK_ROWS, hi)
        float_fmt = "\n".join(["%.17g"] * (b_hi - b_lo))
        text = []
        for name in names:
            block = columns[name][b_lo:b_hi]
            if block.dtype.kind in "iu":
                text.append(list(map(str, block.tolist())))
            else:
                text.append((float_fmt % tuple(block.tolist()))
                            .split("\n"))
        for fh, idx in outs:
            fh.write(("\n".join(map(",".join,
                                    zip(*[text[i] for i in idx])))
                      + "\n").encode("utf-8"))


def _fork_share(columns: dict, names: list, outs: list, lo: int,
                hi: int) -> int:
    """Format rows lo:hi into `outs` in a forked child; returns its pid.

    The child leaves only through os._exit, with status 0 once its files
    are flushed and 1 on any exception, so no buffer, atexit hook or
    finally block it inherited runs a second time."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _format_rows(columns, names, outs, lo, hi)
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


def write_csvs(columns: dict, files: list):
    """Write CSV files drawn from one set of columns.

    `columns` maps a column name to a 1-D array; integer arrays are
    written with str(), float arrays with "%.17g". `files` lists
    (path, column names) pairs; each file gets a header of its column
    names and one row per sample. The bytes equal those of np.savetxt with
    fmt "%.17g" ("%d" for the integer columns), delimiter "," and no
    comment prefix, however the rows are split.

    The rows are split by _share_bounds into contiguous shares. Before
    forking, this process opens the files and, for every share after the
    first, one unnamed temporary file per CSV file in that file's
    directory. A child forked for each such share formats it into its
    temporary files while this process formats the first share straight
    into the files; then every child is waited for and the shares are
    appended in order. The children share the columns copy-on-write, so
    nothing is pickled. A child that fails raises OSError here; on any
    failure the CSV files are removed, and no temporary file outlives the
    call. With a single share nothing is forked.

    The children's memory and CPU time are not this process's: VmHWM and
    thread CPU time leave them out, RUSAGE_CHILDREN counts them. On Python
    3.12 and later os.fork warns when the process has threads, as numpy's
    BLAS pool may, and a child forked from a threaded process can deadlock
    on a lock another thread held. Neither has been seen or ruled out:
    test_forked_write_with_warnings_as_errors has run on Python 3.11 only.
    """
    names = list(dict.fromkeys(name for _, cols in files for name in cols))
    n = len(columns[names[0]])
    if n == 0:
        raise ValueError("cannot write CSV files for an empty trajectory")
    bounds = _share_bounds(n)
    idx = [[names.index(c) for c in cols] for _, cols in files]
    opened = []
    try:
        with ExitStack() as stack:
            finals = []
            for path, _ in files:
                finals.append(stack.enter_context(open(path, "wb")))
                opened.append(path)
            shares = [[stack.enter_context(
                          tempfile.TemporaryFile(dir=Path(path).parent))
                       for path, _ in files] for _ in bounds[1:]]
            pids = []
            try:
                for (lo, hi), tmps in zip(bounds[1:], shares):
                    pids.append(_fork_share(columns, names,
                                            list(zip(tmps, idx)), lo, hi))
                for fh, (_, cols) in zip(finals, files):
                    fh.write((",".join(cols) + "\n").encode("utf-8"))
                _format_rows(columns, names, list(zip(finals, idx)),
                             *bounds[0])
            finally:
                statuses = [os.waitpid(pid, 0)[1] for pid in pids]
            for (lo, hi), status in zip(bounds[1:], statuses):
                if status != 0:
                    raise OSError(f"the CSV writer's child for rows "
                                  f"{lo}-{hi} ended with exit code "
                                  f"{os.waitstatus_to_exitcode(status)}")
            for fh, tmps in zip(finals, zip(*shares)):
                for tmp in tmps:
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh)
    except BaseException:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise
