"""Run one command and report its wall time and resource usage.

    python3 perfbench/launch.py <report.json> <program> [args...]

The command inherits this process's stdin, stdout and stderr.  The report
holds the exit status, the wall time from spawn to reaping, and the user and
system CPU time and peak resident set of the command's process tree, as
``wait4`` gives them.  A child's peak RSS starts at the RSS of the process
that forked it, so the benchmark starts this small launcher instead of
forking the command from its own, larger process.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="ascii") as fh:
        json.dump({
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
