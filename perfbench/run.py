"""The repository benchmark: one command, three workloads, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wire_fixed --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``wire_fixed`` — closed loop of two keep-alive HTTP clients posting
  fixed-lambda fits to a ``repro serve --port 0 --grids 4`` child process;
* ``stream_mixed`` — open loop: Poisson arrivals at :data:`STREAM_RATE`
  per second on one WebSocket stream to the same server, with the
  ``build_workload`` mix (30% exact repeats, 20% GCV selection);
* ``batch_select`` — in this process, one ``submit_many`` per round of a
  large fixed/GCV/k-fold batch on a warm ``SessionPool``.

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
shim installed.  With ``--trace 1`` it measures the workload untraced for
half the time, then again on a fresh set-up with the layer shims of
``layers.py`` installed, and reports the per-layer metrics together with
both phases' latency and throughput (the tracing overhead).  Every response
is compared with a one-shot ``serial_reference`` fit after timing; any
mismatch, error, shed or missing reply is a failure, makes ``correct``
false and the exit code 1.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Closed-loop HTTP clients of ``wire_fixed`` (one per core of the 2-core
#: reference box).
WIRE_CLIENTS = 2
#: Poisson arrival rate of ``stream_mixed`` per second: a quarter of the
#: rate at which the stream starts to fall behind on the quiet 2-core
#: reference box, so it stays below that point when other guests take CPU
#: (see perfbench/README.md).
STREAM_RATE = 100.0
#: Requests per ``submit_many`` round of ``batch_select``.
BATCH_ROUND = 1024
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: A ``stream_mixed`` run whose generator lag p99 exceeds this is invalid.
GEN_LAG_BOUND_MS = 10.0
#: Untimed traffic between set-up and the timed phase of a wire workload.
PRIME_SECONDS = 2.0
#: Distinct results stored before timing: the server's result cache budget
#: (``ResultCache`` default of 1024 entries) plus a margin.
CACHE_FILL = 1100
#: Length of the latency windows of the wire workloads (see ``summarize``).
WINDOW_SECONDS = 1.0
#: Latency percentile reported next to the median.
TAIL = 99.0

#: Environment variables that select a runner or kernel backend.  They are
#: removed before the package is imported (and so from every server child's
#: environment), so the repository defaults are what is measured.
PINNED_ENV_VARS = ("REPRO_RUNNER", "REPRO_BACKEND")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
}


@dataclass
class Phase:
    """One timed phase: samples, its window and what the layers reported."""

    samples: list
    window: tuple[float, float]
    busy_seconds: float
    setups: list[float] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    gen_lag_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    backend: str = ""
    windows: list = field(default_factory=list)
    steal_share: float | None = None


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _steal_share(before, after) -> float | None:
    """Share of the machine's CPU time a hypervisor took between two reads.

    On a shared virtual machine this is the time the host ran someone
    else on our cores; a timed phase with a large share ran on a slower
    machine than one without.
    """
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q, method="linear")) if values else float("inf")


def _latencies_ms(samples) -> list[float]:
    return [s.latency * 1e3 if s.error is None else float("inf") for s in samples]


def summarize(phase: Phase) -> dict:
    """End-to-end figures of one phase; failures count as infinite latency.

    ``latency_p50_ms`` and ``latency_p99_ms`` are medians over the phase's
    windows (one-second slices of a wire run, the rounds of
    ``batch_select``) of each window's percentile: the shared two-core
    reference box changes speed by 10-20% from one second to the next, and
    a median over windows keeps one slow second from moving the figure.
    The same percentiles over the whole run are reported next to them.
    """
    latencies = _latencies_ms(phase.samples)
    windows = [_latencies_ms(window) for window in phase.windows if window]
    succeeded = sum(1 for sample in phase.samples if sample.error is None)
    attempted = len(phase.samples)
    return {
        "attempted": attempted,
        "succeeded": succeeded,
        "failed": attempted - succeeded,
        "failed_share": (attempted - succeeded) / attempted if attempted else 1.0,
        "latency_p50_ms": statistics.median(_percentile(w, 50.0) for w in windows),
        "latency_p99_ms": statistics.median(_percentile(w, TAIL) for w in windows),
        "run_p50_ms": _percentile(latencies, 50.0),
        "run_p99_ms": _percentile(latencies, TAIL),
        "windows": len(windows),
        "window_samples": statistics.median(len(w) for w in windows),
        "throughput_rps": succeeded / phase.busy_seconds if phase.busy_seconds > 0 else 0.0,
        "busy_seconds": phase.busy_seconds,
    }


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(backend: str) -> dict:
    """What was measured: machine, toolchain, kernel backend and revision."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _wire_setups(count: int, warmups, *, traced: bool):
    """Start the server ``count`` times; keep the last one running."""
    from harness import ServerProcess, http_warmup

    times = []
    server = None
    for index in range(count):
        server = ServerProcess(ROOT, traced=traced)
        try:
            server.wait_ready()
            http_warmup(server.host, server.port, warmups)
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - server.spawned_at)
        if index < count - 1:
            server.stop()
    return server, times


@dataclass
class WireInputs:
    """Everything a wire workload sends, generated before any timing."""

    kernels: list
    factory: object
    wires: list
    offsets: object
    fill_wires: list
    prime_wires: list
    prime_offsets: object


def _wire_inputs(kind: str, seconds: float, seed: int, size: str) -> WireInputs:
    import numpy as np

    from harness import poisson_offsets
    from repro.service.net import WireFit
    from workloads import build_stack, stream_mixed_requests, wire_fixed_requests

    kernels, factory = build_stack()
    prime_seconds = PRIME_SECONDS if size == "full" else 0.2
    # The priming traffic draws from another seed, so its content never
    # repeats a timed request and cannot pre-fill the cache for it.
    prime_seed = seed + 104729
    cache_fill = CACHE_FILL if size == "full" else 16
    offsets = prime_offsets = np.zeros(0)
    if kind == "wire_fixed":
        # Enough distinct requests for a closed loop several times faster
        # than the reference box; the loop stops at the deadline.
        per_second = 60 if size == "tiny" else 2000
        requests = wire_fixed_requests(kernels, int(per_second * seconds) + 16, seed)
        prime = wire_fixed_requests(
            kernels, cache_fill + int(per_second * prime_seconds) + 16, prime_seed
        )
    else:
        rate = 100.0 if size == "tiny" else STREAM_RATE
        offsets = poisson_offsets(rate, seconds, seed)
        requests = stream_mixed_requests(kernels, len(offsets), seed)
        prime_offsets = poisson_offsets(rate, prime_seconds, prime_seed)
        prime = stream_mixed_requests(kernels, cache_fill + len(prime_offsets), prime_seed)
    return WireInputs(
        kernels,
        factory,
        [WireFit.from_request(request) for request in requests],
        offsets,
        [WireFit.from_request(request) for request in prime[:cache_fill]],
        [WireFit.from_request(request) for request in prime[cache_fill:]],
        prime_offsets,
    )


def _drive(kind: str, server, wires, offsets, seconds: float):
    from harness import closed_loop, open_loop

    if kind == "wire_fixed":
        return closed_loop(server.host, server.port, wires, clients=WIRE_CLIENTS, seconds=seconds)
    return open_loop(server.host, server.port, wires, offsets)


def _prime(kind: str, server, inputs: WireInputs) -> None:
    """Untimed traffic that brings the server to its steady state.

    The result cache is filled to its budget first (a long-running server
    keeps it full, and a filling cache makes latency drift upwards for the
    first thousand stored results), then a short burst of the workload's own
    traffic fills the lazily built per-grid plans (mixed-lambda pencils, GCV
    batch pieces) that one warm-up request per bucket does not reach.
    """
    from repro.service.net import FitHTTPClient

    fill = inputs.fill_wires
    with FitHTTPClient(server.host, server.port, timeout=60.0) as client:
        for begin in range(0, len(fill), 128):
            for reply in client.fit_batch(fill[begin:begin + 128]):
                if isinstance(reply, Exception):
                    raise RuntimeError(f"priming traffic failed: {reply!r}")
    primed = _drive(kind, server, inputs.prime_wires, inputs.prime_offsets, PRIME_SECONDS)
    errors = [s.error for s in primed if s.error is not None or s.done is None]
    if errors:
        raise RuntimeError(f"priming traffic failed: {errors[0]!r}")


def _wire_phase(kind: str, seconds: float, setups: int, traced: bool, inputs: WireInputs) -> Phase:
    from harness import check_responses
    from layers import layer_metrics
    from repro.service.net import FitHTTPClient
    from workloads import warmup_requests

    methods = ("fixed",) if kind == "wire_fixed" else ("fixed", "gcv")
    warmups = warmup_requests(inputs.kernels, methods)
    server, setup_times = _wire_setups(setups, warmups, traced=traced)
    try:
        _prime(kind, server, inputs)
        with FitHTTPClient(server.host, server.port, timeout=60.0) as ops:
            before = ops.metrics()["counters"]
            backend = ops.backends()["active"]
        ticks = _cpu_ticks()
        start = time.perf_counter()
        samples = _drive(kind, server, inputs.wires, inputs.offsets[inputs.offsets < seconds], seconds)
        end = max((s.done for s in samples if s.done is not None), default=time.perf_counter())
        steal = _steal_share(ticks, _cpu_ticks())
        with FitHTTPClient(server.host, server.port, timeout=60.0) as ops:
            metrics = ops.metrics()
            pool = ops.pool()["pool"]
    finally:
        trace = server.stop()
    phase = Phase(samples, (start, end), end - start, setups=setup_times, backend=backend)
    phase.steal_share = steal
    slices = max(1, int(seconds // WINDOW_SECONDS))
    phase.windows = [[] for _ in range(slices)]
    for sample in samples:
        index = int((sample.due - start) // WINDOW_SECONDS)
        if index < slices:
            phase.windows[index].append(sample)
    phase.gen_lag_ms = [(s.sent - s.due) * 1e3 for s in samples] if kind == "stream_mixed" else []
    if traced:
        if trace is None:
            raise RuntimeError("the traced server printed no spans:\n" + "\n".join(server.output))
        phase.layers = layer_metrics(trace, phase.window, phase.busy_seconds)
        wire_ms = statistics.fmean(_latencies_ms(samples))
        phase.layers["net.self_ms"] = wire_ms - phase.layers["scheduler.request_mean_ms"]
        counters = metrics["counters"]
        batches = counters.get("batches", 0) - before.get("batches", 0)
        batched = counters.get("batched_requests", 0) - before.get("batched_requests", 0)
        phase.layers["scheduler.batch_size_mean"] = batched / batches if batches else 0.0
        phase.layers["scheduler.batch_size_p95"] = metrics["histograms"].get("batch_size", {}).get("p95", 0.0)
        phase.layers["pool.builds"] = float(pool["misses"])
        phase.layers["pool.evictions"] = float(pool["evictions"])
    # A wire request converts back to a bit-identical FitRequest.
    requests = {s.index: inputs.wires[s.index].to_request() for s in samples}
    phase.failures = check_responses(samples, requests, inputs.factory("serial-reference"))
    return phase


def _batch_setups(count: int):
    from repro.core.constraints import clear_assembly_caches
    from repro.service import MicroBatchScheduler, SessionPool
    from workloads import build_stack, warmup_requests

    times = []
    stack = None
    for index in range(count):
        # Module-level assembly memos would make every set-up after the
        # first look cheaper than a fresh process's.
        clear_assembly_caches()
        start = time.perf_counter()
        kernels, factory = build_stack()
        scheduler = MicroBatchScheduler(SessionPool(factory))
        try:
            scheduler.map(warmup_requests(kernels, ("fixed", "gcv", "kfold")))
        except BaseException:
            scheduler.shutdown()
            raise
        times.append(time.perf_counter() - start)
        if index < count - 1:
            scheduler.shutdown()
        stack = kernels, factory, scheduler
    return stack, times


def _batch_phase(seconds: float, seed: int, setups: int, traced: bool, size: str) -> Phase:
    from harness import batch_round, check_responses
    from layers import Tracer, layer_metrics
    from repro import backends
    from workloads import batch_select_requests

    tracer = Tracer().install() if traced else None
    try:
        (kernels, factory, scheduler), setup_times = _batch_setups(setups)
        round_size = 16 if size == "tiny" else BATCH_ROUND
        scheduler.telemetry.reset()
        samples, requests, rounds = [], [], []
        busy = 0.0
        ticks = _cpu_ticks()
        start = time.perf_counter()
        try:
            round_index = 0
            while busy < seconds:
                batch = batch_select_requests(kernels, round_size, seed, round_index)
                round_samples = batch_round(scheduler, batch)
                busy += max(s.done for s in round_samples) - round_samples[0].due
                for sample in round_samples:
                    sample.index += len(requests)
                samples.extend(round_samples)
                rounds.append(round_samples)
                requests.extend(batch)
                round_index += 1
            end = time.perf_counter()
            steal = _steal_share(ticks, _cpu_ticks())
            snapshot = scheduler.telemetry.snapshot()
            pool = scheduler.pool.stats()
        finally:
            scheduler.shutdown()
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase = Phase(samples, (start, end), busy, setups=setup_times, backend=backends.active_backend().name)
    phase.windows = rounds
    phase.steal_share = steal
    if tracer is not None:
        phase.layers = layer_metrics(tracer.events, phase.window, phase.busy_seconds)
        histogram = snapshot["histograms"].get("batch_size", {})
        phase.layers["scheduler.batch_size_mean"] = histogram.get("mean", 0.0)
        phase.layers["scheduler.batch_size_p95"] = histogram.get("p95", 0.0)
        phase.layers["pool.builds"] = float(pool["misses"])
        phase.layers["pool.evictions"] = float(pool["evictions"])
    phase.failures = check_responses(samples, requests, factory("serial-reference"))
    return phase


def run_phase(workload: str, seconds: float, seed: int, *, setups: int, traced: bool, size: str, inputs=None):
    if workload == "batch_select":
        return _batch_phase(seconds, seed, setups, traced, size)
    return _wire_phase(workload, seconds, setups, traced, inputs)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _print_phase(workload: str, label: str, phase: Phase, summary: dict) -> None:
    print(f"[{workload}] {label} phase")
    if phase.setups:
        listed = " ".join(f"{value:.3f}" for value in phase.setups)
        print(f"  setup_s          s      median {statistics.median(phase.setups):.4f}   "
              f"({len(phase.setups)} set-ups: {listed})")
    n = summary["attempted"]
    windows = f"median of {summary['windows']} windows of ~{summary['window_samples']:.0f} samples"
    print(f"  latency_p50_ms   ms     p50    {summary['latency_p50_ms']:.4f}   ({windows}; "
          f"whole run {summary['run_p50_ms']:.4f}, n={n})")
    print(f"  latency_p99_ms   ms     p{TAIL:g}    {summary['latency_p99_ms']:.4f}   ({windows}; "
          f"whole run {summary['run_p99_ms']:.4f}, n={n})")
    print(f"  throughput_rps   1/s    {summary['throughput_rps']:.2f}   "
          f"({summary['succeeded']} succeeded in {summary['busy_seconds']:.3f} s busy)")
    print(f"  failed_share     ratio  {summary['failed_share']:.6f}   "
          f"({summary['failed']} of {n} attempted)")
    print(f"  requests: sent {n}, succeeded {summary['succeeded']}, failed {summary['failed']}")
    if phase.gen_lag_ms:
        print(f"  gen_lag_p99_ms   ms     p99    {_percentile(phase.gen_lag_ms, 99.0):.4f}   "
              f"(bound {GEN_LAG_BOUND_MS} ms, n={len(phase.gen_lag_ms)})")
    if phase.steal_share is not None:
        print(f"  cpu_steal_share  ratio  {phase.steal_share:.4f}   "
              "(machine CPU time the hypervisor gave to others during the timed phase)")
    for message in phase.failures[:10]:
        print(f"  FAILED {message}")
    if len(phase.failures) > 10:
        print(f"  ... and {len(phase.failures) - 10} more failures")


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["wire_fixed", "stream_mixed", "batch_select"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size",
        choices=["full", "tiny"],
        default="full",
        help="tiny: a few requests per workload, for the smoke test",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    for name in PINNED_ENV_VARS:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))

    from layers import PER_LAYER_UNITS

    inputs = None
    if args.workload != "batch_select":
        inputs = _wire_inputs(args.workload, args.seconds, args.seed, args.size)
        # The pre-built requests are millions of long-lived objects; left to
        # the collector, its full passes would stall the load generator.
        gc.collect()
        gc.freeze()

    phases = []
    if args.trace:
        half = args.seconds / 2.0
        phases.append(("untraced", run_phase(args.workload, half, args.seed, setups=1, traced=False,
                                             size=args.size, inputs=inputs)))
        phases.append(("traced", run_phase(args.workload, half, args.seed, setups=1, traced=True,
                                           size=args.size, inputs=inputs)))
    else:
        phases.append(("untraced", run_phase(args.workload, args.seconds, args.seed, setups=SETUPS,
                                             traced=False, size=args.size, inputs=inputs)))

    env = environment(phases[0][1].backend)
    print("environment " + json.dumps(env, sort_keys=True))
    summaries = {}
    for label, phase in phases:
        summaries[label] = summarize(phase)
        _print_phase(args.workload, label, phase, summaries[label])

    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    for label, phase in phases:
        if phase.gen_lag_ms and _percentile(phase.gen_lag_ms, 99.0) > GEN_LAG_BOUND_MS:
            # Reported, not dropped: the figures above are printed as measured.
            print(f"INVALID: {label} phase generator lag p99 exceeds {GEN_LAG_BOUND_MS} ms; "
                  "the open loop did not keep its schedule")

    untraced = summaries["untraced"]
    if args.trace:
        traced_phase = phases[1][1]
        traced = summaries["traced"]
        values = {name: 0.0 for name in PER_LAYER_UNITS}
        values.update({k: v for k, v in traced_phase.layers.items() if k in PER_LAYER_UNITS})
        values["machine.steal_share"] = traced_phase.steal_share or 0.0
        if traced_phase.gen_lag_ms:
            values["stream.gen_lag_p99_ms"] = _percentile(traced_phase.gen_lag_ms, 99.0)
        values["trace.untraced_p50_ms"] = untraced["latency_p50_ms"]
        values["trace.traced_p50_ms"] = traced["latency_p50_ms"]
        values["trace.untraced_rps"] = untraced["throughput_rps"]
        values["trace.traced_rps"] = traced["throughput_rps"]
        values["trace.overhead_share"] = traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1.0
        print(f"[{args.workload}] per-layer metrics (traced phase)")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:28s} {unit:6s} {values[name]:.6g}")
        metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        figures = dict(untraced, setup_s=statistics.median(phases[0][1].setups))
        metrics = {name: _metric(figures[name], unit) for name, unit in END_TO_END_UNITS.items()}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
