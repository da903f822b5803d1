"""Launcher stub for one untraced timingq CLI invocation.

    python3 perfbench/launch.py <timingq arguments...>

Writes `perfbench-import-ns <CLOCK_MONOTONIC ns>` as the first stderr line
once `timingq.cli` is imported, so the parent can split the invocation into
set-up (spawn to import) and work (import to exit).
"""

import sys
import time

if __name__ == "__main__":
    import timingq.cli

    sys.stderr.write(f"perfbench-import-ns {time.monotonic_ns()}\n")
    sys.stderr.flush()
    sys.exit(timingq.cli.main(sys.argv[1:]))
