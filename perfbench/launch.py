"""Run one command to completion and record its wall time and rusage.

The benchmark starts every measured process through this launcher so that
the reported peak RSS is the process's own. On Linux a process started with
posix_spawn (vfork) inherits, at exec, the RSS high-water mark of the process
that spawned it, and the benchmark process grows while it checks outputs.
This launcher is small, so what it passes on is far below any measured peak.

Usage:

    python3 -I -S perfbench/launch.py TIMEOUT_S RESULT_JSON PROGRAM [ARGS...]

Writes {"wall_s", "rss_mb", "cpu_s", "code"} to RESULT_JSON. A command still
running after TIMEOUT_S seconds is killed, waited for, and reported with
code null.
"""
import json
import os
import signal
import sys
import time


def main(argv):
    timeout, result_path, program = float(argv[0]), argv[1], argv[2:]
    timed_out = []

    def on_alarm(signum, frame):
        timed_out.append(True)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    pid = os.posix_spawn(program[0], program, os.environ)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "wall_s": wall,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "code": code,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
