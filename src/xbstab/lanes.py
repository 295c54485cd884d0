"""Forked lanes for the variants of a sweep.

cli.run_scenario runs a sweep of more than one variant in P = min(variants,
usable CPUs) lanes. Lane w runs variants w, w+P, w+2P, ... with its
affinity set to every P-th usable CPU from the w-th, so the CSV writer,
which forks one share per usable CPU of its process, forks one per CPU of
the lane. The calling process is lane 0: it forks lanes 1 to P-1, runs its
own variants in-process and then reaps the others, so whatever replaced
a function of cli in it (a test's monkeypatch, a benchmark's timer) still
sees every call of lane 0.

Only runs with more than one variant import this module, so that a single
run does not compile it: the source is compiled on every start where no
bytecode cache is written, and its compiler memory stays resident.
"""

from __future__ import annotations

import os
import signal
import sys

# exit codes of a forked lane; any other exit, or a signal, is a crash
PASSED, FAILED, CRASHED = 0, 1, 2


def lane_cpus(variants: int) -> list:
    """The CPUs of each lane, lane 0 first: P = min(variants, usable CPUs)
    lanes, lane w on cpus[w::P]. Empty when the variants should run in
    this process: one usable CPU, or no os.fork or os.sched_setaffinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    lanes = min(variants, len(cpus))
    return [cpus[w::lanes] for w in range(lanes)] if lanes > 1 else []


def _fork_lane(cpus: list, run) -> int:
    """Fork a lane that runs run() on `cpus`; returns its pid.

    The lane leads its own process group, so that killing the group also
    ends the CSV writer's children it forked, and ignores SIGTTOU, so that
    its stderr stays writable from outside the terminal's foreground
    group. It leaves only through os._exit, with PASSED when run() returns
    true, FAILED when it returns false and CRASHED on any exception, so no
    buffer, atexit hook or finally block it inherited runs a second
    time."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        try:
            # here as well as in the lane, so the group exists before
            # this process can kill it
            os.setpgid(pid, pid)
        except OSError:     # the lane has already exited
            pass
        return pid
    status = CRASHED
    try:
        os.setpgid(0, 0)
        signal.signal(signal.SIGTTOU, signal.SIG_IGN)
        os.sched_setaffinity(0, cpus)
        status = PASSED if run() else FAILED
    except BaseException:
        try:
            sys.excepthook(*sys.exc_info())
        except BaseException:
            pass
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def run_lanes(jobs: list, cpus: list, run, crashed) -> bool:
    """Run `jobs` in P = len(cpus) lanes; whether every lane passed.

    Lane w calls run(jobs[w::P]), which returns whether all of those jobs
    passed, on the CPUs cpus[w]. This process runs lane 0 and restores its
    affinity however it leaves. On any exception it kills every other lane
    with its process group and reaps it before re-raising. Once all lanes
    have ended, crashed(lane_jobs, exit_code) is called for each lane that
    crashed."""
    P = len(cpus)
    saved = os.sched_getaffinity(0)
    pids, codes = {}, {}
    try:
        for w in range(1, P):
            pids[w] = _fork_lane(cpus[w], lambda w=w: run(jobs[w::P]))
        os.sched_setaffinity(0, cpus[0])
        passed = run(jobs[::P])
        for w, pid in list(pids.items()):
            codes[w] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pids[w]
    except BaseException:
        for pid in pids.values():
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids.values():
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:   # reaped just before the exception
                pass
        raise
    finally:
        os.sched_setaffinity(0, saved)
    for w, code in codes.items():
        if code not in (PASSED, FAILED):
            crashed(jobs[w::P], code)
    return passed and all(code == PASSED for code in codes.values())
