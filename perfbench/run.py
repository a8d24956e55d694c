"""Cold `analyze` benchmark: one fresh interpreter per request.

Usage (from the repository root):

    python3 perfbench/run.py --workload enum_165 --seed 1 --seconds 40 --trace 0

Each request spawns `perfbench/worker.py`, which imports `abelcodes.cli`
from `src/` and makes one `analyze` call, as a real invocation does.
Requests run one after another from this process (a closed loop with one
client) until `--seconds` have passed, and at least MIN_REQUESTS times.
Every answer is checked against golden.json.

With `--trace 0` the last line of stdout reports the end-to-end metrics as
medians over the requests.  With `--trace 1` untraced and traced requests
alternate; the traced ones record spans (see spans.py) and the last line
reports the per-layer metrics, medians over the traced requests, plus the
tracing overhead.  Metric names and units are read from BENCHMARK.json.

The workloads are fixed requests with no random input, so `--seed` selects
nothing; it is accepted and echoed in the run context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKER = HERE / "worker.py"

_COMMON = ["--format", "json", "--threads", "1"]
WORKLOADS: dict[str, list[str]] = {
    # enumeration-bound: six dim-20 codes, each scanned three times
    "enum_165": ["3x5x11", "--weights", "--distribution", "--verify", "--budget", "2^20", *_COMMON],
    # translation/convolution-bound: family build, axioms, 36 ideal bases
    "levels_675": ["27x25", "--verify", "--budget", "2^10", *_COMMON],
    # order-225 prime-power table; two dim-60 labels over budget, exit code 3
    "split_225": ["9x25", "--weights", "--distribution", "--verify", "--budget", "2^20", *_COMMON],
}

MIN_REQUESTS = 3  # untraced requests per run, whatever --seconds says
SETUP_SPAWNS = 6  # set-up-only spawns before each untraced request, for the set-up median
SETUP_TIMEOUT = 60
REQUEST_TIMEOUT = 150


class WorkerError(RuntimeError):
    """A worker died, timed out or printed something other than its protocol."""


def _worker_env() -> dict[str, str]:
    # Workers read byte code cached under .bench_build, as an installed
    # package would, whatever the caller's environment says about caching.
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def _spawn() -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it has imported the CLI; returns (process, set-up s).

    Raises WorkerError if the worker exits or is not ready within SETUP_TIMEOUT.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=_worker_env(),
        cwd=ROOT,
        text=True,
    )
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        readable = selector.select(SETUP_TIMEOUT)
    line = proc.stdout.readline() if readable else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        if not readable:
            raise WorkerError(f"worker not ready after {SETUP_TIMEOUT} s")
        raise WorkerError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _exchange(proc: subprocess.Popen, line: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(line, timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise WorkerError(f"worker exceeded {timeout} s") from None
    finally:
        if proc.poll() is None:
            _stop(proc)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def measure_setup() -> float:
    """Spawn a worker that only sets up, and return its set-up time."""
    proc, setup = _spawn()
    _exchange(proc, "\n", SETUP_TIMEOUT)
    return setup


def request(workload: str, *, trace: bool, spans_path: Path | None = None) -> dict:
    """Make one cold request; returns the worker's result plus `setup_s`."""
    message: dict = {"argv": WORKLOADS[workload], "trace": trace}
    if trace:
        message["request_id"] = spans_path.stem
        message["spans_path"] = str(spans_path)
    proc, setup = _spawn()
    out = _exchange(proc, json.dumps(message) + "\n", REQUEST_TIMEOUT)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError("worker printed no result") from None
    result["setup_s"] = setup
    return result


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(args: argparse.Namespace) -> dict:
    """Where and how a result set was measured; results from different machines differ."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "not installed"
    return {
        "workload": args.workload,
        "argv": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "loadavg_at_start": list(os.getloadavg()),
    }


class Tally:
    """Counts requests and the ones whose answer differs from golden."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, result: dict | None) -> bool:
        """Count one request; None stands for a request that produced no answer."""
        self.attempted += 1
        ok = result is not None and not golden.mismatches(
            golden.checked_content(result["exit"], result["report"]), self.expected
        )
        if not ok:
            self.failed += 1
        return ok


def _attempt(workload: str, tally: Tally, **kwargs) -> dict | None:
    try:
        result = request(workload, **kwargs)
    except WorkerError as exc:
        print(f"request failed: {exc}", file=sys.stderr)
        tally.check(None)
        return None
    if not tally.check(result):
        print(f"wrong answer on {workload}", file=sys.stderr)
    return result


def _time_left(started: float, seconds: float, per_request: list[float], done: int, minimum: int) -> bool:
    if done < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(per_request) <= seconds


def measure_end_to_end(workload: str, seconds: float, tally: Tally) -> dict[str, float]:
    setups: list[float] = []
    good: list[dict] = []
    costs: list[float] = []
    started = time.perf_counter()
    while _time_left(started, seconds, costs, tally.attempted, MIN_REQUESTS):
        t0 = time.perf_counter()
        # Set-up spawns alternate with the requests, so that their median
        # covers the whole run rather than its first seconds.
        setups.extend(measure_setup() for _ in range(SETUP_SPAWNS))
        result = _attempt(workload, tally, trace=False)
        costs.append(time.perf_counter() - t0)
        if result is not None:
            good.append(result)
    if not good:
        raise WorkerError("no request produced an answer")
    return {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in good]),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in good) / 1024,
        "correct_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def measure_layers(workload: str, seconds: float, tally: Tally) -> dict[str, float]:
    trace_dir = BUILD / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_request: list[dict[str, float]] = []
    costs: list[float] = []
    started = time.perf_counter()
    while _time_left(started, seconds, costs, len(costs), 1):
        t0 = time.perf_counter()
        plain = _attempt(workload, tally, trace=False)
        path = trace_dir / f"{workload}-{len(costs)}.jsonl"
        traced = _attempt(workload, tally, trace=True, spans_path=path)
        costs.append(time.perf_counter() - t0)
        if plain is None or traced is None:
            continue
        plain_walls.append(plain["wall_s"])
        traced_walls.append(traced["wall_s"])
        n_labels = len(traced["report"]["group"]["labels"])
        per_request.append(spans.layer_metrics(spans.load(str(path)), n_labels))
    if not per_request:
        raise WorkerError("no traced request produced an answer")
    metrics = {
        name: statistics.median(m[name] for m in per_request) for name in per_request[0]
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    )
    return metrics


def _declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "abelcodes" / "cli.py").is_file():
        print(f"error: no abelcodes sources under {SRC}", file=sys.stderr)
        return 2
    units = _declared_metrics(bool(args.trace))
    print(json.dumps({"context": run_context(args)}), flush=True)

    tally = Tally(golden.load()[args.workload])
    try:
        measure_setup()  # warm-up: fills the byte code cache once, not timed
        if args.trace:
            values = measure_layers(args.workload, args.seconds, tally)
        else:
            values = measure_end_to_end(args.workload, args.seconds, tally)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
