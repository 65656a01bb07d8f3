"""One benchmark job: a fresh process that runs one bentvec CLI command.

    python3 bench/job.py RESULT SRC [--trace SPANS] -- CLI-ARGS...
    python3 bench/job.py RESULT SRC --import-only
    python3 bench/job.py RESULT SRC --reference

The CLI writes to this process's stdout.  RESULT receives JSON with the
CLOCK_MONOTONIC instant at which `bentvec.cli` was imported and ready
(the parent subtracts its spawn instant to get the set-up time), the
wall time of `cli.main(argv)`, the process's peak RSS and the exit code.
With --trace the layers are wrapped after the import and the spans are
written to SPANS when the command returns.  --reference imports numpy
instead of bentvec: its start-up time measures the host's speed with no
bentvec code involved.
"""

import sys
import time


def peak_rss_kb():
    """High-water RSS of this process image.

    ru_maxrss is not used: on Linux it keeps the peak of the parent's
    memory image that this process was spawned from.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    result_path, src, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    if rest == ["--reference"]:
        import numpy  # noqa: F401

        ready = time.monotonic()
        import json

        with open(result_path, "w") as handle:
            json.dump({"ready": ready, "job_s": 0.0, "rss_kb": peak_rss_kb(), "code": 0}, handle)
        return 0
    sys.path.insert(0, src)
    import bentvec.cli as cli

    ready = time.monotonic()
    import json
    import os

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"bentvec was imported from {cli.__file__}, not {src}\n")
        return 97
    tracer = None
    if rest[:1] == ["--trace"]:
        import spans

        tracer = spans.Tracer(job_id=os.getpid())
        spans.install(tracer)
        spans_path, rest = rest[1], rest[2:]
    code, job_s = 0, 0.0
    if rest[:1] == ["--"]:
        start = time.perf_counter()
        code = cli.main(rest[1:])
        job_s = time.perf_counter() - start
        sys.stdout.flush()
    elif rest != ["--import-only"]:
        sys.stderr.write(f"usage: {__doc__}")
        return 98
    rss_kb = peak_rss_kb()
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w") as handle:
        json.dump({"ready": ready, "job_s": job_s, "rss_kb": rss_kb, "code": code}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
