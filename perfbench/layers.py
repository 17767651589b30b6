"""Timing shims around the public entry points of each layer.

The benchmark's traced run installs a :class:`Tracer`: every shim records
``(start, duration, value)`` on the monotonic ``perf_counter`` clock, which
is system-wide on Linux, so spans recorded inside the server process line
up with the client's timed window.  Nothing under ``src/`` is changed; the
shims replace attributes at run time and :meth:`Tracer.uninstall` puts the
originals back.  :func:`layer_metrics` turns the spans that fall inside a
timed window into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

#: Per-layer metrics and their units, in report order.  Every traced run
#: prints all of them; a layer a workload never enters reads 0.
PER_LAYER_UNITS = {
    "net.decode_us": "us",
    "net.encode_us": "us",
    "net.self_ms": "ms",
    "scheduler.submit_us": "us",
    "scheduler.request_ms": "ms",
    "scheduler.request_p99_ms": "ms",
    "scheduler.wait_ms": "ms",
    "scheduler.wait_p99_ms": "ms",
    "scheduler.batch_size_mean": "count",
    "scheduler.batch_size_p95": "count",
    "cache.hit_ratio": "ratio",
    "cache.lookup_us": "us",
    "pool.lease_us": "us",
    "pool.builds": "count",
    "pool.evictions": "count",
    "deconvolver.fit_many_ms": "ms",
    "deconvolver.fit_us": "us",
    "lambda.gcv_ms": "ms",
    "lambda.gcv_share": "ratio",
    "lambda.kfold_ms": "ms",
    "lambda.kfold_share": "ratio",
    "problem.solve_batch_us": "us",
    "problem.solve_batch_rows": "count",
    "problem.solve_mixed_us": "us",
    "problem.solve_mixed_rows": "count",
    "qp.fallback_ratio": "ratio",
    "kernel.builds": "count",
    "kernel.build_ms": "ms",
    "kernel.builds_timed": "count",
    "stream.gen_lag_p99_ms": "ms",
    "machine.steal_share": "ratio",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.untraced_rps": "1/s",
    "trace.traced_rps": "1/s",
    "trace.overhead_share": "ratio",
}


def _plain(fn, record):
    def shim(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        record(start, time.perf_counter() - start, args, kwargs, result)
        return result

    shim.__wrapped__ = fn
    return shim


class Tracer:
    """Installs the layer shims and keeps their spans in memory."""

    def __init__(self) -> None:
        self.events: dict[str, list] = defaultdict(list)
        self._undo: list = []
        self._local = threading.local()

    # -- recording helpers ---------------------------------------------

    def _recorder(self, name, value=None):
        events = self.events[name]

        def record(start, duration, args, kwargs, result):
            events.append(
                (start, duration, None if value is None else value(args, kwargs, result))
            )

        return record

    def _patch(self, owner, attr, replacement) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, value=None) -> None:
        self._patch(owner, attr, _plain(owner.__dict__[attr], self._recorder(name, value)))

    def _span_classmethod(self, owner, attr, name) -> None:
        fn = owner.__dict__[attr].__func__
        self._patch(owner, attr, classmethod(_plain(fn, self._recorder(name))))

    # -- install / uninstall ---------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer boundary the per-layer metrics are built from."""
        from repro.cellcycle.kernel import KernelBuilder
        from repro.core import deconvolver as deconvolver_module
        from repro.core.deconvolver import Deconvolver
        from repro.core.problem import DeconvolutionProblem
        from repro.numerics.qp import MixedLambdaEigPlan, QPWorkspace
        from repro.service.cache import ResultCache
        from repro.service.net import protocol, server
        from repro.service.net.protocol import Frame, WireFit, WireResult
        from repro.service.pool import SessionPool
        from repro.service.scheduler import MicroBatchScheduler

        # net: decode_frame is imported by name into the server module.
        decode = self._recorder("net.decode_frame")
        shim = _plain(protocol.decode_frame, decode)
        self._patch(protocol, "decode_frame", shim)
        self._patch(server, "decode_frame", shim)
        self._span_classmethod(WireFit, "from_payload", "net.from_payload")
        self._span(WireFit, "to_request", "net.to_request")
        self._span_classmethod(WireResult, "from_result", "net.from_result")
        self._span(Frame, "encode", "net.frame_encode")

        # scheduler: submit spans plus submit-to-resolution per request.
        self._patch(MicroBatchScheduler, "submit", self._submit_shim(MicroBatchScheduler.submit))
        self._patch(
            MicroBatchScheduler, "submit_many", self._submit_many_shim(MicroBatchScheduler.submit_many)
        )

        self._span(ResultCache, "get", "cache.get", lambda a, k, r: r is not None)
        self._span(SessionPool, "acquire", "pool.acquire")

        fit_many = self._recorder("deconvolver.fit_many", lambda a, k, r: len(r))
        local = self._local

        def record_fit_many(start, duration, args, kwargs, result):
            fit_many(start, duration, args, kwargs, result)
            local.last_solve = duration

        self._patch(Deconvolver, "fit_many", _plain(Deconvolver.fit_many, record_fit_many))

        # lambda selection: both names are imported into the deconvolver module.
        self._span(
            deconvolver_module,
            "select_lambda",
            "lambda.select",
            lambda a, k, r: k.get("method", "gcv"),
        )
        self._span(
            deconvolver_module,
            "generalized_cross_validation_batch",
            "lambda.gcv_batch",
            lambda a, k, r: len(r),
        )

        self._span(
            DeconvolutionProblem, "solve_batch", "problem.solve_batch", lambda a, k, r: r.num_problems
        )
        self._span(
            DeconvolutionProblem, "solve_mixed", "problem.solve_mixed", lambda a, k, r: r.num_problems
        )
        self._span(
            QPWorkspace,
            "solve_batch",
            "qp.solve_batch",
            lambda a, k, r: (r.num_problems, r.num_fallback),
        )
        self._span(
            MixedLambdaEigPlan,
            "solve",
            "qp.mixed_plan",
            lambda a, k, r: (len(r[2]), sum(1 for s in r[2] if s is None)),
        )
        self._span(KernelBuilder, "build", "kernel.build")
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _request_callback(self, start):
        requests = self.events["scheduler.request"]
        local = self._local

        def done(_future):
            # Runs on the thread that resolved the future: a worker right
            # after its batch's fit_many, or the submitter for cache hits
            # (which never solved anything on that thread).
            requests.append(
                (start, time.perf_counter() - start, getattr(local, "last_solve", 0.0))
            )

        return done

    def _submit_shim(self, submit):
        spans = self.events["scheduler.submit"]

        def shim(scheduler, request, **kwargs):
            start = time.perf_counter()
            future = submit(scheduler, request, **kwargs)
            spans.append((start, time.perf_counter() - start, 1))
            future.add_done_callback(self._request_callback(start))
            return future

        return shim

    def _submit_many_shim(self, submit_many):
        spans = self.events["scheduler.submit"]

        def shim(scheduler, requests, **kwargs):
            requests = list(requests)
            start = time.perf_counter()
            futures = submit_many(scheduler, requests, **kwargs)
            spans.append((start, time.perf_counter() - start, len(requests)))
            for future in futures:
                future.add_done_callback(self._request_callback(start))
            return futures

        return shim

    def dump(self) -> dict:
        """The recorded spans as plain lists (JSON-serialisable)."""
        return {name: [list(event) for event in events] for name, events in self.events.items()}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _within(events, window):
    start, end = window
    return [event for event in events if start <= event[0] <= end]


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(events: dict, window: tuple[float, float], busy_seconds: float) -> dict[str, float]:
    """Per-layer metrics from the spans whose start lies inside ``window``.

    ``events`` is a :meth:`Tracer.dump` (or the live ``Tracer.events``);
    ``busy_seconds`` is the timed part of the window, the base of the
    ``*_share`` ratios.  Spans outside the window (set-up, warm-up, the
    correctness pass) are ignored, except the kernel builds, which are
    reported for the set-up that preceded the window and separately counted
    inside it.
    """
    wall = max(busy_seconds, 1e-9)

    def get(name):
        return _within(events.get(name, []), window)

    out: dict[str, float] = {}
    to_request = get("net.to_request")
    from_result = get("net.from_result")
    decode_total = sum(
        e[1] for name in ("net.decode_frame", "net.from_payload", "net.to_request") for e in get(name)
    )
    encode_total = sum(e[1] for name in ("net.from_result", "net.frame_encode") for e in get(name))
    out["net.decode_us"] = decode_total / len(to_request) * 1e6 if to_request else 0.0
    out["net.encode_us"] = encode_total / len(from_result) * 1e6 if from_result else 0.0

    submits = get("scheduler.submit")
    submitted = sum(e[2] for e in submits)
    out["scheduler.submit_us"] = sum(e[1] for e in submits) / submitted * 1e6 if submitted else 0.0
    requests = get("scheduler.request")
    request_ms = [e[1] * 1e3 for e in requests]
    wait_ms = [max(0.0, e[1] - e[2]) * 1e3 for e in requests]
    out["scheduler.request_ms"] = _percentile(request_ms, 50)
    out["scheduler.request_p99_ms"] = _percentile(request_ms, 99)
    out["scheduler.wait_ms"] = _percentile(wait_ms, 50)
    out["scheduler.wait_p99_ms"] = _percentile(wait_ms, 99)
    out["scheduler.request_mean_ms"] = _mean(request_ms)

    lookups = get("cache.get")
    out["cache.hit_ratio"] = sum(1 for e in lookups if e[2]) / len(lookups) if lookups else 0.0
    out["cache.lookup_us"] = _mean([e[1] for e in lookups]) * 1e6
    out["pool.lease_us"] = _mean([e[1] for e in get("pool.acquire")]) * 1e6

    batches = get("deconvolver.fit_many")
    fits = sum(e[2] for e in batches)
    busy = sum(e[1] for e in batches)
    out["deconvolver.fit_many_ms"] = _mean([e[1] for e in batches]) * 1e3
    out["deconvolver.fit_us"] = busy / fits * 1e6 if fits else 0.0

    selects = get("lambda.select")
    gcv = sum(e[1] for e in selects if e[2] == "gcv") + sum(e[1] for e in get("lambda.gcv_batch"))
    kfold = sum(e[1] for e in selects if e[2] == "kfold")
    out["lambda.gcv_ms"] = gcv * 1e3
    out["lambda.gcv_share"] = gcv / wall
    out["lambda.kfold_ms"] = kfold * 1e3
    out["lambda.kfold_share"] = kfold / wall

    for kind in ("solve_batch", "solve_mixed"):
        calls = get(f"problem.{kind}")
        out[f"problem.{kind}_us"] = _mean([e[1] for e in calls]) * 1e6
        out[f"problem.{kind}_rows"] = _mean([e[2] for e in calls])

    stacked = get("qp.solve_batch") + get("qp.mixed_plan")
    rows = sum(e[2][0] for e in stacked)
    fallback = sum(e[2][1] for e in stacked)
    out["qp.fallback_ratio"] = fallback / rows if rows else 0.0

    builds = events.get("kernel.build", [])
    before = [e for e in builds if e[0] < window[0]]
    out["kernel.builds"] = float(len(before))
    out["kernel.build_ms"] = sum(e[1] for e in before) * 1e3
    out["kernel.builds_timed"] = float(len(get("kernel.build")))
    return out
