"""Run one command; write "<wall seconds> <peak RSS KiB> <exit code>" to a file descriptor.

    python3 launch.py REPORT_FD PROGRAM ARG...

The benchmark starts every CLI child through this small process because
Linux carries the spawning process's peak RSS into the child's
``ru_maxrss`` across exec.  Spawned from the benchmark itself, which holds
the large outputs it checks, a child would report the benchmark's peak;
spawned from here it reports its own.  The child inherits stdout, so its
output goes straight to the benchmark's pipe.
"""

import os
import sys
import time

report_fd = int(sys.argv[1])
argv = sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
os.write(report_fd, f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}".encode())
