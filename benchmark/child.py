"""One scenario invocation in a fresh interpreter, as ``xbstab run`` does it.

Started by run.py with the wall-clock reading taken just before the spawn,
so that set-up time counts from process start. Modes:

  setup   stop at the first call into simulate; report set-up time only
  timed   full run; cli.simulate is replaced only by a pass-through that
          keeps the clock reading of its first call
  traced  full run under the span wrappers of spans.py

The result is written as JSON to --result; the artifacts go to --out.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path


def clock() -> float:
    """Monotonic wall clock, comparable between processes of one host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def process_cpu_s() -> float:
    """CPU seconds used so far by this process and its waited children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_kb() -> int:
    """VmHWM, the peak resident memory of this process image. Unlike
    ru_maxrss it does not carry over the spawning process's peak, which
    Linux keeps across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class _SetupReached(BaseException):
    """Raised at the first call into simulate in setup mode; a
    BaseException so that no handler of the program absorbs it."""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--sweep", default=None)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"),
                    required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    from xbstab import cli, engine, fastpath
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"xbstab imported from {cli.__file__}, "
                           f"not from {src}")

    first_sim = []
    lock = threading.Lock()
    simulate = cli.simulate

    def timestamped(*a, **kw):
        with lock:
            if not first_sim:
                first_sim.extend((clock(), process_cpu_s()))
        if args.mode == "setup":
            raise _SetupReached
        return simulate(*a, **kw)

    cli.simulate = timestamped
    tracer = saved = None
    if args.mode == "traced":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans
        tracer = spans.Tracer()
        saved = tracer.install(cli, engine, fastpath)

    try:
        cli.run_scenario(args.config, out_dir=args.out, checks="all",
                         sweep=args.sweep)
    except _SetupReached:
        pass
    end, cpu_end = clock(), process_cpu_s()

    result = {"backend": "numba" if fastpath.HAVE_NUMBA else "python",
              "setup_s": first_sim[0] - args.spawned,
              "wall_s": end - first_sim[0],
              "cpu_s": cpu_end - first_sim[1],
              "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        tracer.restore(saved)
        result["summary"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
