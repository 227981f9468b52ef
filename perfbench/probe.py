"""Cold-start probe: import the solver stack and build one workload's
inputs (for ``serve-fleet``, also boot the fleet until every member's
``/healthz`` is ready), print the monotonic clock, then clean up and
exit.  ``run.py`` starts this module in fresh interpreters and takes
``setup_s`` as the printed time minus the time it started the process,
so interpreter start-up counts and tear-down does not.

Usage: ``python3 -m perfbench.probe <workload> <seed>`` from the
repository root, with ``src`` on ``PYTHONPATH``.
"""

import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    fleet = None
    if workload == "sweep-neighbors":
        from perfbench import sweep
        sweep.build(seed)
    elif workload == "serve-fleet":
        from perfbench import fleet as serve
        serve.build(seed)
        fleet = serve.Fleet()
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print(repr(time.perf_counter()), flush=True)
    if fleet is not None:
        fleet.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
