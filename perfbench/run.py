"""enumerlab benchmark: one closed loop, a single caller, no threads.

    python3 perfbench/run.py --seed 1                      # all four workloads
    python3 perfbench/run.py --workload programs --seed 1 --seconds 25 --trace 0

Run from the repository root.  With --trace 0 the workload runs untraced
for --seconds and the last line is a JSON object with the end-to-end
metrics; with --trace 1 a fixed share of the workload runs untraced, then
again under the outside-in tracer, and the JSON holds the per-layer
metrics.  Every outcome is checked against independent references outside
the timed region; a wrong output makes the run exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SPAWNS = 15
# the environment every benchmark process runs in, whatever the caller's
PINNED_ENV = {"PYTHONHASHSEED": "0", "PYTHONPATH": "src"}
UNSET_ENV = (
    "ENUMERLAB_BUDGET", "PYTHONINTMAXSTRDIGITS", "PYTHONOPTIMIZE",
    "PYTHONDEVMODE", "PYTHONMALLOC", "PYTHONWARNINGS",
)


def pin_environment() -> None:
    """Re-execute this script under the pinned environment if the caller's
    differs, so the benchmark process and every child see the same one."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    if env != dict(os.environ):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


class Failure:
    """An outcome that was an exception rather than a value."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__

    def __eq__(self, other):
        return isinstance(other, Failure) and other.kind == self.kind


class Times:
    """Times of one request's repeats, evenly thinned to at most
    2 * KEEP, so memory does not grow with the length of the run."""

    KEEP = 16

    def __init__(self):
        self.kept: list[int] = []
        self.stride = 1
        self.count = 0

    def add(self, ns: int) -> None:
        self.count += 1
        if self.count % self.stride == 0:
            self.kept.append(ns)
            if len(self.kept) == 2 * self.KEEP:
                self.kept = self.kept[1::2]
                self.stride *= 2

    def upper_decile(self) -> int:
        """p90 of the repeats: the time of the request when the machine is
        busy, without the rare outliers a maximum would pick up."""
        return quantile(self.kept, 0.90)


class Pass:
    """One pass over the blocks of a workload.  Requests are keyed by their
    place (block, position) in the input; each key keeps its first outcome
    and its repeat times.  A repeat is compared with the first outcome on
    the spot, so memory does not grow with the run."""

    def __init__(self):
        self.first: dict = {}
        self.times: dict = {}
        self.differing: set = set()
        self.wall_ns = 0
        self.block_ns: list[tuple[int, int]] = []  # (block index, wall time)


def timed_pass(serve, comparable, blocks, *, seconds=None, n_blocks=None,
               min_requests=0, on_request=None, between_blocks=None) -> Pass:
    """Serve whole blocks in order, cycling, until `n_blocks` are done or,
    with `seconds`, until that much time has been measured and at least
    `min_requests` requests were served.  `between_blocks(wall_ns)` and
    gc.collect() run before each block, outside the timed region."""
    result = Pass()
    now = time.perf_counter_ns
    served = b = 0
    while True:
        if n_blocks is not None and b >= n_blocks:
            break
        if seconds is not None and result.wall_ns >= seconds * 1e9 and served >= min_requests:
            break
        index = b % len(blocks)
        if between_blocks is not None:
            between_blocks(result.wall_ns)
        gc.collect()
        block_start = now()
        for pos, request in enumerate(blocks[index]):
            if on_request is not None:
                on_request(served)
            t0 = now()
            try:
                out = serve(request)
            except Exception as exc:  # every failure is counted by type
                out = Failure(exc)
            ns = now() - t0
            key = (index, pos)
            if key not in result.first:
                result.first[key] = out
                result.times[key] = Times()
            elif comparable(out) != comparable(result.first[key]):
                result.differing.add(key)
            result.times[key].add(ns)
        served += len(blocks[index])
        block_ns = now() - block_start
        result.block_ns.append((index, block_ns))
        result.wall_ns += block_ns
        b += 1
    return result


def check_pass(workload, blocks, run: Pass):
    """Check each distinct request's outcome against the references.
    Returns each key's verdict (None when correct, else the exception type
    or "wrong") and the problems found.  An exception is a problem unless
    it is the seed's known defect on that very request."""
    problems: list[str] = []
    verdicts: dict = {}
    for key, out in run.first.items():
        request = blocks[key[0]][key[1]]
        if isinstance(out, Failure):
            verdicts[key] = out.kind
            if out.kind != workload.known_defect(request):
                problems.append(f"request {key} raised {out.kind}")
            continue
        found = workload.problems(request, out)
        if key in run.differing:
            found.append(f"request {key} gave a different outcome on repeat")
        problems.extend(found)
        verdicts[key] = "wrong" if found else None
    return verdicts, problems


def failures_by_type(verdicts: dict) -> dict[str, int]:
    """Failed distinct requests by exception type (or "wrong")."""
    counts: dict[str, int] = {}
    for verdict in verdicts.values():
        if verdict is not None:
            counts[verdict] = counts.get(verdict, 0) + 1
    return counts


def quantile(samples, q: float) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def measure_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter until it has imported the
    package and generated the inputs (it prints 'ready' at that point)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
    )
    line = proc.stdout.readline()
    t1 = time.perf_counter()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up process failed")
    return t1 - t0


def emit(line: str) -> None:
    print(line, flush=True)


def run_untraced(name, workload, blocks, seed, seconds) -> int:
    """The end-to-end metrics.  A request's latency is the p90 of its
    repeats in the run (see `Times.upper_decile`); on a shared machine that
    varies less from run to run than a single time, the median or the
    fastest.  Percentiles are over the distinct requests that succeeded.
    Throughput is each served block's work, failed requests included, over
    its wall time, and the run reports the 10th percentile of the blocks:
    the rate the machine sustains in its slow state, for the same reason.
    Set-up is timed SETUP_SPAWNS times, spread evenly over the run between
    blocks, and the fastest counts: set-up noise only adds time, and the
    fast state of the machine shows in nearly every run."""
    setup: list[float] = []
    interval_ns = seconds * 1e9 / SETUP_SPAWNS

    def spawn_due(wall_ns):
        while len(setup) < SETUP_SPAWNS and wall_ns >= len(setup) * interval_ns:
            setup.append(measure_setup(name, seed))

    run = timed_pass(workload.serve, workload.comparable, blocks, seconds=seconds,
                     min_requests=workload.min_requests, between_blocks=spawn_due)
    while len(setup) < SETUP_SPAWNS:
        setup.append(measure_setup(name, seed))
    peak_rss_mb = workload.peak_rss_kb() / 1024
    verdicts, problems = check_pass(workload, blocks, run)
    ok = [key for key, verdict in verdicts.items() if verdict is None]
    lat_ms = [run.times[key].upper_decile() / 1e6 for key in ok]
    p50_ms = statistics.median(lat_ms)
    p50_name, (tail_name, tail_q), rate_name = workload.metric_names
    tail_ms = quantile(lat_ms, tail_q)
    block_work = [sum(workload.work(request) for request in block) for block in blocks]
    throughput = quantile([block_work[index] / (ns / 1e9) for index, ns in run.block_ns], 0.10)
    served = sum(t.count for t in run.times.values())
    counts = failures_by_type(verdicts)
    attempted, failed = len(verdicts), sum(counts.values())
    scale, unit = {"s": (1e-3, "s"), "ms": (1.0, "ms"), "us": (1e3, "us")}[p50_name.rsplit("_", 1)[1]]
    n = f"n={len(lat_ms)} k={min(run.times[key].count for key in ok)}"
    emit(f"{name} {p50_name} {p50_ms * scale:.6g} {unit} {n}")
    emit(f"{name} {tail_name} {tail_ms * scale:.6g} {unit} {n}")
    emit(f"{name} {rate_name} {throughput:.6g} 1/s n={len(run.block_ns)} requests={served}")
    emit(f"{name} setup_s {min(setup):.6g} s n={len(setup)} (fastest)")
    emit(f"{name} peak_rss_mb {peak_rss_mb:.6g} MB n=1")
    detail = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    emit(f"{name} failed_ratio {failed / attempted:.6g} ratio n={attempted} {detail}".rstrip())
    for p in problems[:20]:
        emit(f"{name} WRONG {p}")
    metrics = {
        "setup_s": (min(setup), "s"),
        "latency_p50_ms": (p50_ms, "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return finish(not problems, attempted, failed, metrics)


def run_traced(name, workload, blocks) -> int:
    """The per-layer metrics: a fixed share of the inputs runs untraced, then
    traced; outcomes must be the same and the time ratio is the overhead."""
    import tracer as tracing

    k = workload.blocks_traced
    same = workload.comparable
    tracer = tracing.Tracer()
    extra = {}
    if name == "cli":
        spawned = timed_pass(workload.serve, same, blocks, n_blocks=k)
        serve = workload.serve_in_process
    else:
        serve = workload.serve
    timed_pass(serve, same, blocks, n_blocks=k)  # warm-up, so neither timed pass runs cold
    plain = timed_pass(serve, same, blocks, n_blocks=k)
    tracer.install()
    try:
        traced = timed_pass(serve, same, blocks, n_blocks=k,
                            on_request=lambda i: setattr(tracer, "req", i))
    finally:
        tracer.uninstall()
    verdicts, problems = check_pass(workload, blocks, plain)
    pairs = [(plain, traced)]
    if name == "cli":
        problems += check_pass(workload, blocks, spawned)[1]
        pairs.append((spawned, plain))
        extra = {
            "cli.spawn_ms": statistics.median(
                spawned.times[key].kept[0] - plain.times[key].kept[0] for key in plain.first) / 1e6,
            "cli.dispatch_ms": statistics.median(t.kept[0] for t in plain.times.values()) / 1e6,
            "cli.stdout_bytes": sum(len(out[1]) for out in plain.first.values()),
        }
    differ = sum(same(a.first[key]) != same(b.first[key]) for a, b in pairs for key in a.first)
    if differ:
        problems.append(f"{differ} traced outcomes differ from untraced ones")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}.bin")
    metrics = tracer.layer_metrics()
    for key in ("cli.spawn_ms", "cli.dispatch_ms", "cli.stdout_bytes"):
        metrics[key] = extra.get(key, 0)
    metrics["trace.spans"] = len(tracer.start)
    metrics["trace.overhead_ratio"] = traced.wall_ns / plain.wall_ns
    traced_failures = failures_by_type({
        key: out.kind if isinstance(out, Failure) else None for key, out in traced.first.items()
    })
    metrics["failures.RecursionError"] = traced_failures.pop("RecursionError", 0)
    metrics["failures.ValueError"] = traced_failures.pop("ValueError", 0)
    metrics["failures.other"] = sum(traced_failures.values())
    detail = " ".join(f"{k}={v}" for k, v in sorted(failures_by_type(verdicts).items()))
    emit(f"{name} traced requests={len(traced.first)} spans={len(tracer.start)} "
         f"overhead_ratio={metrics['trace.overhead_ratio']:.4g} failures: {detail or 'none'}")
    for p in problems[:20]:
        emit(f"{name} WRONG {p}")
    units = {"calls": "count", "bits_requested": "count", "certificates": "count",
             "ast_nodes": "count", "svg_bytes": "bytes", "stdout_bytes": "bytes",
             "spans": "count", "overhead_ratio": "ratio"}
    out = {}
    for key, value in metrics.items():
        suffix = key.split(".", 1)[1]
        unit = "count" if key.startswith("failures.") else units.get(suffix, "ms")
        out[key] = (value, unit)
        emit(f"{name} {key} {value:.6g} {unit}")
    failed = sum(1 for o in traced.first.values() if isinstance(o, Failure))
    return finish(not problems, len(traced.first), failed, out)


def finish(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process of its own; exits 1 if any fails."""
    import workloads

    codes, summary = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            emit(line)
        codes.append(proc.returncode)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary), flush=True)
    return 0 if all(c == 0 for c in codes) and summary["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("audit", "programs", "pointwise", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "enumerlab" / "__init__.py").is_file():
        print(f"error: no enumerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    pin_environment()
    if args.workload is None:
        return run_all(args)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    blocks = workload.blocks(random.Random(args.seed))
    if args.setup_only:
        print("ready", flush=True)
        return 0
    emit(f"# enumerlab benchmark workload={args.workload} seed={args.seed} "
         f"seconds={args.seconds} trace={args.trace} python={platform.python_version()} "
         f"nproc={len(os.sched_getaffinity(0))}")
    if args.trace:
        return run_traced(args.workload, workload, blocks)
    return run_untraced(args.workload, workload, blocks, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
