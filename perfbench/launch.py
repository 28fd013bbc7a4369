"""Run one job and measure it: wall time, CPU time and peak RSS.

Usage: python3 -S perfbench/launch.py RESULT_FD TIMEOUT_S -- ARGV...

``run.py`` starts every job through this small process.  On Linux a
program's ``ru_maxrss`` also counts the peak memory of the process that
started it, so a job started straight from ``run.py``, which holds numpy and
parsed reports, would report at least that process's peak.  Started from here
it reports its own.

Wall time runs from launch to exit with stdout read in full; CPU time and
peak RSS come from the job's ``wait4`` rusage.  They are written as one JSON
object to RESULT_FD after the job ends, and the job's stdout and stderr are
then passed through.  A job still running after TIMEOUT_S is killed.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main(argv: list) -> int:
    result_fd, timeout, command = int(argv[0]), float(argv[1]), argv[3:]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killed = threading.Event()

    def kill(*_) -> None:
        killed.set()
        proc.kill()

    signal.signal(signal.SIGTERM, kill)
    stderr = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    timer = threading.Timer(timeout, kill)
    reader.start()
    timer.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": killed.is_set(),
    }
    with os.fdopen(result_fd, "w") as fh:
        fh.write(json.dumps(result))
    sys.stdout.buffer.write(out)
    sys.stderr.buffer.write(stderr[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
