"""One cold `analyze` request in a fresh interpreter.

Usage: python3 perfbench/worker.py SRC_DIR

The worker imports `abelcodes.cli` from SRC_DIR and prints `ready`; the
parent times set-up from spawn to that line.  It then reads one JSON request
from stdin:

    {"argv": [...], "trace": false}
    {"argv": [...], "trace": true, "request_id": "...", "spans_path": "..."}

and prints one JSON line with the exit code, wall and CPU time of the call
into `abelcodes.cli.main`, the worker's peak resident memory, and the JSON
report the call wrote to stdout.  A traced request also writes its spans to `spans_path`.  An empty
request line ends the worker after set-up alone.
"""

import sys


def set_up(src: str):
    sys.path.insert(0, src)
    import abelcodes.cli

    return abelcodes.cli


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it was exec'd, in KiB.

    This is `VmHWM`, not `ru_maxrss`: on Linux `ru_maxrss` starts from the
    peak of the process that spawned this one, so it would report the
    parent's size whenever the parent is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def serve(cli) -> int:
    import io
    import json
    import resource
    import time

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    request = json.loads(line)
    recorder = None
    call = cli.main
    if request["trace"]:
        import spans

        recorder = spans.Recorder(request["request_id"])
        recorder.install()
        call = recorder.wrap(spans.ROOT_SPAN, cli.main)

    real_stdout = sys.stdout
    sys.stdout = captured = io.StringIO()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        code = call(request["argv"])
    finally:
        end = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_SELF)
        sys.stdout = real_stdout

    if recorder is not None:
        recorder.dump(request["spans_path"])
    result = {
        "exit": code,
        "wall_s": end - start,
        "cpu_s": (after.ru_utime + after.ru_stime) - (usage.ru_utime + usage.ru_stime),
        "peak_rss_kb": peak_rss_kb(),
        "report": json.loads(captured.getvalue()),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    cli_module = set_up(sys.argv[1])
    print("ready", flush=True)
    sys.exit(serve(cli_module))
