"""One benchmark for the CPU path of the reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study --seed 2013 --seconds 30 --trace 0

Workloads: ``study``, ``monitor``, ``discover``, ``serve`` (why each
exists is in ``BENCHMARK.json``; which layers it loads, in
``perfbench/spec.json``).
With ``--trace 0`` the last line of output is a JSON object with every
end-to-end metric; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead, and the spans go to
``.perfbench_work/traces/*.jsonl``.

The bounded times (``setup_s``, ``norm_cpu_p50_ms``) are CPU time, not
wall time, rescaled to a reference speed: with ``workers=1`` and link
latency 0 the measured work is single-threaded CPU work, whose CPU time
is its wall time on an idle machine; CPU time leaves out what the
hypervisor of a shared host gives to other machines, and the rescaling
(see ``reference.py``) divides out the drift of the host's speed. Raw
CPU and wall times are printed beside them.

The run fails (``"correct": false``) when a pass's output digest differs
from another pass's, from the traced pass's, or from the digest pinned in
``spec.json`` (at the default seed; for ``serve``, whose store does not
depend on ``--seed``, at every seed).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = HERE / "spec.json"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("study", "monitor", "discover", "serve")
#: Set-up is repeated at least this often per run; its median is reported.
MIN_SETUPS = 3
#: A traced run alternates untraced and traced passes, at least two of
#: each, so exact counts are compared across two traced passes.
MIN_TRACED_PASSES = 4
#: The light-rate requests go in slices of this many, one connection
#: each; the server's CPU time is read between slices.
SERVE_SLICE = 200
#: After each measured pass (serve: slice) the reference runs for this
#: share of the pass's wall time: it must sample the host about as long
#: as the workload does, or its own noise outweighs the drift it removes.
REFERENCE_SHARE = 0.25
#: Text lines printed under the names the workloads' users know:
#: alias -> (value, scale, unit). ``wall_p50_ms`` is the median wall
#: time of one operation (serve: request latency at the light rate) and
#: ``rate_per_s`` the median throughput over passes (serve: the ladder's
#: highest passing rate).
ALIASES: Dict[str, Dict[str, Tuple[str, float, str]]] = {
    "study": {
        "study_s": ("wall_p50_ms", 0.001, "s"),
        "study_units_per_s": ("rate_per_s", 1.0, "1/s"),
    },
    "monitor": {
        "monitor_round_ms": ("wall_p50_ms", 1.0, "ms"),
        "monitor_rounds_per_s": ("rate_per_s", 1.0, "1/s"),
    },
    "discover": {
        "discover_s": ("wall_p50_ms", 0.001, "s"),
        "discover_probes_per_s": ("rate_per_s", 1.0, "1/s"),
    },
    "serve": {
        "serve_p50_ms": ("wall_p50_ms", 1.0, "ms"),
        "serve_max_rps": ("rate_per_s", 1.0, "1/s"),
    },
}


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    #: CPU seconds of each set-up (serve: with the server's start-up).
    setup_s: List[float] = field(default_factory=list)
    #: Operation latencies in seconds, pooled over untraced passes.
    latencies: List[float] = field(default_factory=list)
    #: CPU seconds per operation, pooled over untraced passes (serve:
    #: server CPU seconds per request of each slice of the light rate).
    cpu_times: List[float] = field(default_factory=list)
    #: CPU seconds of each reference call, run between untraced passes.
    reference: List[float] = field(default_factory=list)
    #: Operations per second of each untraced pass (or the ladder's rate).
    rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0


# ---------------------------------------------------------------- helpers
def environment() -> Dict[str, Any]:
    """Where the numbers came from; ``serve`` crosses loopback only."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        source.update(path.read_bytes())
    return {
        "git_commit": commit,
        # A checkout that is not a git repository still names its code.
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "link_latency_s": 0.0,
        "workers": 1,
        "note": "serve crosses loopback on one machine, not a real link",
    }


def cpu_jiffies() -> Optional[Tuple[int, int]]:
    """(all, steal) CPU ticks from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already inside user and nice.
    ticks = fields[:8]
    return sum(ticks), ticks[7] if len(ticks) > 7 else 0


def median_of(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------ pass loop
def run_passes(workload, seconds: float, trace: bool, run_id: str) -> Outcome:
    """Repeat set-up + pass while another pass fits in ``seconds``.

    Traced runs alternate untraced and traced passes, so the tracing
    overhead is the difference of their median wall times.
    """
    import reference
    from layers import Observers, layer_values
    from tracing import Tracer

    outcome = Outcome()
    setup_walls: List[float] = []
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    traced_values: List[Dict[str, float]] = []
    last_tracer: Optional[Tracer] = None
    minimum = MIN_TRACED_PASSES if trace else workload.min_passes
    started_run = time.perf_counter()
    index = 0
    while index < minimum or (
        time.perf_counter() - started_run
        + median_of(setup_walls)
        + median_of(untraced_walls + traced_walls) * (1 + REFERENCE_SHARE)
        <= seconds
    ):
        traced = trace and index % 2 == 1
        started, cpu_started = time.perf_counter(), time.process_time()
        state = workload.setup()
        outcome.setup_s.append(time.process_time() - cpu_started)
        setup_walls.append(time.perf_counter() - started)
        tracer = observers = None
        try:
            if traced:
                observers = Observers()
                tracer = Tracer(run_id).install(observers.targets())
            started, cpu_started = time.perf_counter(), time.process_time()
            try:
                result = workload.run(state)
            finally:
                wall = time.perf_counter() - started
                cpu = time.process_time() - cpu_started
                if tracer is not None:
                    tracer.uninstall()
        finally:
            workload.teardown(state)
            del state
            # Each pass starts without the last one's garbage, so the
            # collector's work lands in the pass that made it.
            gc.collect()
        outcome.digests.append(result.digest)
        outcome.problems.extend(result.problems)
        if traced:
            assert tracer is not None and observers is not None
            traced_walls.append(wall)
            values = layer_values(tracer.spans, observers)
            values.update(result.layer)
            traced_values.append(values)
            last_tracer = tracer
        else:
            untraced_walls.append(wall)
            outcome.latencies.extend(result.latencies or [wall])
            outcome.cpu_times.extend(result.cpu_times or [cpu])
            outcome.rates.append(result.operations / wall)
            outcome.attempted += result.attempted
            outcome.failed += result.failed
            outcome.reference += reference.run_for(REFERENCE_SHARE * wall)
        index += 1
    while len(outcome.setup_s) < MIN_SETUPS:
        started = time.process_time()
        state = workload.setup()
        outcome.setup_s.append(time.process_time() - started)
        workload.teardown(state)
        # Freed before the next set-up, so two never add up in peak RSS.
        del state
        gc.collect()
    if trace:
        outcome.layer = {
            name: median_of([values[name] for values in traced_values])
            for name in traced_values[0]
        }
        outcome.layer["trace.overhead_s"] = median_of(traced_walls) - median_of(
            untraced_walls
        )
        outcome.problems.extend(inexact_counts(traced_values))
        assert last_tracer is not None
        write_spans(last_tracer)
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcome


def inexact_counts(traced_values: List[Dict[str, float]]) -> List[str]:
    """Counts pinned as exact must repeat across traced passes."""
    exact = json.loads(SPEC_PATH.read_text(encoding="utf-8"))["exact_counts"]
    return [
        f"exact count {name} varied across traced passes: "
        f"{[values[name] for values in traced_values]}"
        for name in exact
        if len({values[name] for values in traced_values}) > 1
    ]


def write_spans(tracer) -> None:
    path = WORK / "traces" / f"{tracer.run_id}.jsonl"
    tracer.write_jsonl(str(path))
    print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")


# ----------------------------------------------------------------- serve
def run_serve(ctx, seconds: float, trace: bool, run_id: str) -> Outcome:
    """Light-rate latency, then the ladder search for the highest rate.

    Half of ``seconds`` goes to the light rate, a quarter to the ladder. The
    traced run replays the light-rate requests in-process through
    ``StoreApi.handle`` instead of climbing the ladder.
    """
    from layers import nearest_rank
    from serve_load import ServeBench

    spec = ctx.spec
    bench = ServeBench(ctx, SRC)
    outcome = Outcome()
    try:
        for _ in range(1 if trace else MIN_SETUPS):
            outcome.setup_s.append(bench.setup())
        bench.prepare()
        print(f"serve: {len(bench.universe)} distinct request targets")
        digest, verified = bench.verify()
        outcome.digests.append(digest)
        outcome.problems += verified.problems
        light_rate = float(spec["light_rate"])
        slices = max(1, int(light_rate * seconds / 2) // SERVE_SLICE)
        light = bench.requests(slices * SERVE_SLICE)
        measured, outcome.cpu_times, outcome.reference = bench.metered_load(
            light, light_rate, SERVE_SLICE, REFERENCE_SHARE
        )
        # A failed request misses every latency limit.
        outcome.latencies = [
            s.latency if s.status in (200, 304) else math.inf
            for s in measured.samples
        ]
        p99_ms = 1000.0 * nearest_rank(outcome.latencies, 0.99)
        print(
            f"serve_p99_ms: {p99_ms:.6g} ms at {light_rate:g}/s "
            f"({len(light)} requests; not gated, see spec.json)"
        )
        runs = [measured]
        if trace:
            outcome.layer, replayed = serve_layers(
                bench, light, measured.samples, run_id
            )
            outcome.problems += replayed
            outcome.layer["serve.p99_ms"] = p99_ms
        else:
            ladder = [float(rate) for rate in spec["ladder"]]
            rung_seconds = seconds / 4 / max(1, len(ladder).bit_length())
            max_rps, climbed = climb(bench, ladder, rung_seconds)
            outcome.rates.append(max_rps)
            runs += climbed
        for run in runs:
            outcome.attempted += len(run.samples)
            outcome.failed += run.failed
            outcome.problems += run.problems
    finally:
        bench.teardown()
    outcome.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    return outcome


def climb(bench, ladder: List[float], rung_seconds: float):
    """Binary search for the highest rung that keeps up and meets the limit.

    A rung passes when no request failed, its p99 latency is within the
    limit and the last response arrived within 10% (plus the limit) of
    the schedule's end -- i.e. no backlog grew. Returns the achieved
    throughput at the highest passing rung (at the lowest rung if none
    passed) and every rung's checked samples.
    """
    from layers import nearest_rank

    limit = float(bench.spec["p99_limit_ms"]) / 1000.0
    low, high = -1, len(ladder)
    achieved: Dict[int, float] = {}
    runs = []
    while high - low > 1:
        middle = (low + high) // 2
        rate = ladder[middle]
        count = max(1, int(rate * rung_seconds))
        run = bench.load(bench.requests(count), rate)
        runs.append(run)
        latencies = [s.latency for s in run.samples]
        schedule = count / rate
        ok = (
            run.failed == 0
            and nearest_rank(latencies, 0.99) <= limit
            and run.elapsed <= schedule * 1.1 + limit
        )
        achieved[middle] = count / run.elapsed
        print(
            f"rung {rate:g}/s: {count} requests, p99 "
            f"{1000 * nearest_rank(latencies, 0.99):.3f} ms, done in "
            f"{run.elapsed:.3f} s of {schedule:.3f} s -> "
            + ("pass" if ok else "fail")
        )
        if ok:
            low = middle
        else:
            high = middle
    best = low if low >= 0 else min(achieved)
    return achieved[best], runs


def serve_layers(
    bench, light, samples, run_id: str
) -> Tuple[Dict[str, float], List[str]]:
    """Replay the light-rate requests in-process, untraced then traced.

    Returns the layer metrics and the replayed answers that differ from
    what the server must send: each 200 body must equal the body the
    untraced in-process API gave (and the server served, see
    ``ServeBench.verify``), each revalidation must answer 304.
    """
    from layers import Observers, layer_values, ratio
    from tracing import Tracer

    def replay(tracer=None):
        api = bench.new_api()
        for target in bench.universe:  # the server saw this warm pass too
            api.handle(target)
        warm = api.metrics.count("serve.cache.hits"), api.metrics.count(
            "serve.cache.misses"
        )
        if tracer is not None:
            tracer.install(observers.targets())
        started = time.perf_counter()
        try:
            responses = [api.handle(target, etag) for target, etag in light]
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
        hits = api.metrics.count("serve.cache.hits") - warm[0]
        misses = api.metrics.count("serve.cache.misses") - warm[1]
        wrong = [
            f"{'traced' if tracer else 'untraced'} replay of {target}: "
            f"got {response.status}, expected "
            + ("304" if etag else "200 with the verified body")
            for (target, etag), response in zip(light, responses)
            if (
                response.status != 304
                if etag
                else (response.status, response.body)
                != (200, bench.expected[target])
            )
        ]
        return ratio(hits, hits + misses), responses, wall, wrong

    observers = Observers()
    _hit_frac, _responses, untraced_wall, problems = replay()
    tracer = Tracer(run_id)
    hit_frac, responses, traced_wall, wrong = replay(tracer)
    problems += wrong
    values = layer_values(tracer.spans, observers)
    handles = [s.duration for s in tracer.spans if s.name == "serve.handle"]
    values.update(
        {
            "serve.cache_hit_frac": hit_frac,
            "serve.not_modified_frac": sum(r.status == 304 for r in responses)
            / len(responses),
            "serve.http_s": median_of(
                [s.latency - h for s, h in zip(samples, handles)]
            ),
            "serve.gen_late_ms": 1000.0 * statistics.fmean(s.late for s in samples),
            "serve.queue_wait_ms": 1000.0
            * statistics.fmean(s.queue_wait for s in samples),
            "trace.overhead_s": traced_wall - untraced_wall,
        }
    )
    write_spans(tracer)
    return values, problems


# ------------------------------------------------------------------ main
def end_to_end_values(
    outcome: Outcome, reference_call_ms: float
) -> Dict[str, Tuple[float, str]]:
    """Metric name -> (value, unit); what each means per workload is in
    ``spec.json`` under ``metrics``. CPU times are rescaled by
    ``reference_call_ms`` over this run's median reference call."""
    speed = reference_call_ms / (1000.0 * statistics.fmean(outcome.reference))
    return {
        "setup_s": (speed * median_of(outcome.setup_s), "s"),
        "norm_cpu_p50_ms": (speed * 1000.0 * median_of(outcome.cpu_times), "ms"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"no program to measure: {SRC / 'repro'} is missing; run from "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))

    from workloads import PASS_WORKLOADS, Context

    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    run_id = f"{args.workload}-s{args.seed}-{uuid.uuid4().hex[:8]}"
    work_dir = WORK / run_id
    ctx = Context(
        seed=args.seed,
        default_seed=int(spec["default_seed"]),
        spec=spec["workloads"][args.workload],
        work_dir=work_dir,
    )
    # A terminated run still unwinds, so the serve workload stops its server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    before = cpu_jiffies()
    try:
        if args.workload == "serve":
            outcome = run_serve(ctx, args.seconds, bool(args.trace), run_id)
        else:
            workload = PASS_WORKLOADS[args.workload](ctx)
            outcome = run_passes(workload, args.seconds, bool(args.trace), run_id)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    after = cpu_jiffies()
    if before is not None and after is not None and after[0] > before[0]:
        # Time the hypervisor gave this machine's CPUs to someone else; a
        # run with much of it measured a slower machine.
        steal = 100.0 * (after[1] - before[1]) / (after[0] - before[0])
        print(f"host_steal_pct: {steal:.2f} % of CPU time during the run")

    problems = list(outcome.problems)
    if len(set(outcome.digests)) != 1:
        problems.append(f"output digests differ between passes: {outcome.digests}")
    pinned = spec["digests"].get(args.workload)
    # serve's store is built from the default seed whatever --seed is, so
    # its digest is pinned for every seed.
    if (
        args.seed == ctx.default_seed or args.workload == "serve"
    ) and outcome.digests[0] != pinned:
        problems.append(
            f"digest {outcome.digests[0]} != pinned default-seed digest {pinned}"
        )
    failed_frac = outcome.failed / max(1, outcome.attempted)
    print(f"digest: {outcome.digests[0]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        from layers import per_layer_metrics

        outcome.layer["failed_frac"] = failed_frac
        metrics = {
            name: {"value": outcome.layer.get(name, 0.0), "unit": unit}
            for name, unit, _better in per_layer_metrics()
        }
    else:
        values = end_to_end_values(outcome, float(spec["reference_call_ms"]))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        print(
            f"cpu_p50_ms: {1000 * median_of(outcome.cpu_times):.6g} ms, "
            f"setup_cpu_s: {median_of(outcome.setup_s):.6g} s, reference_call_ms: "
            f"{1000 * statistics.fmean(outcome.reference):.6g} ms "
            f"({len(outcome.reference)} calls; not rescaled)"
        )
        # Wall time and throughput are printed under the workload's own
        # names, not gated (spec.json, "not_gated").
        values["wall_p50_ms"] = (1000.0 * median_of(outcome.latencies), "ms")
        values["rate_per_s"] = (median_of(outcome.rates), "1/s")
        for alias, (name, scale, unit) in ALIASES[args.workload].items():
            print(f"{alias}: {values[name][0] * scale:.6g} {unit}")
        print(f"failed_frac: {failed_frac:.6g}")
    result = {
        "correct": not problems,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
