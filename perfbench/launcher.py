"""Child launcher for run.py: starts the benchmark's commands, one at a time.

A child's peak RSS (ru_maxrss) starts from the RSS of the process it was
forked from, and exec keeps that high-water mark. run.py holds numpy,
the references and the in-process library calls, so its children would
report its RSS whenever their own is lower. This process stays small, so
the peaks it reports are the children's own.

Protocol, one JSON object per line: run.py writes
{"argv": [...], "stderr": path} and reads back
{"seconds": wall time, "status": exit status, "maxrss_kb": peak RSS}.
The launcher exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(job["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"seconds": seconds, "status": proc.returncode, "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
