"""Run one command; report its exit code, wall time and peak RSS.

    python3 perfbench/spawn.py FD PROGRAM ARG...

The command inherits stdin, stdout and stderr.  When it has ended, one line
"<exit code> <wall seconds> <peak RSS in KiB>" is written to file descriptor
FD.  A process's peak RSS, as wait4 reports it, is at least that of the
process it was started from; started from this small one, the command's own
peak shows instead of the benchmark's.
"""

import os
import sys
import time

fd = int(sys.argv[1])
start = time.perf_counter()
pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
os.write(fd, f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\n".encode())
