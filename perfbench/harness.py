"""Load generation: the server child process, the wire loops and the batch loop.

Each loop returns one :class:`Sample` per attempted request, stamped on
the ``perf_counter`` clock.  The correctness gate (:func:`check_responses`)
runs after timing and turns every wrong, missing or failed response into a
failure, so nothing slow is ever hidden behind an error.
"""

from __future__ import annotations

import itertools
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service import serial_reference
from repro.service.net import FitHTTPClient, StreamClient, WireFit, WireResult, WireError, frame_to_error

#: Prefix of the line the traced server child prints its spans on.
TRACE_PREFIX = "PERFBENCH_TRACE "

#: Coefficient tolerance of the correctness gate (lambdas must match exactly).
COEFFICIENT_TOLERANCE = 1e-10

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


@dataclass
class Sample:
    """One attempted request: when it was due, sent and answered."""

    index: int
    due: float
    sent: float
    done: float | None = None
    result: object = None
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due


class ServerProcess:
    """``repro serve --port 0 --grids 4`` in a child process.

    Untraced runs start the CLI exactly as shipped; traced runs start it
    through ``server_child.py``, which installs the layer shims first and
    prints the recorded spans when the server shuts down.  The child
    inherits this process's environment with ``src/`` as its path.
    """

    def __init__(self, root: Path, *, traced: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        serve = ["serve", "--port", "0", "--grids", "4"]
        if traced:
            command = [sys.executable, str(root / "perfbench" / "server_child.py"), *serve]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        self.spawned_at = time.perf_counter()
        self._proc = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, name="perfbench-server-out", daemon=True)
        self._reader.start()
        self.host = ""
        self.port = 0
        self.output: list[str] = []

    def _read(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the server prints its listening address."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("the server did not start listening in time") from None
            if line is None:
                raise RuntimeError("the server exited before listening:\n" + "\n".join(self.output))
            self.output.append(line)
            match = _LISTENING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return

    def stop(self, timeout: float = 20.0) -> dict | None:
        """Interrupt the server, wait for it, return its trace dump if any."""
        import json

        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGINT)
        try:
            self._proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait(5.0)
        self._reader.join(5.0)
        trace = None
        while True:
            try:
                line = self._lines.get_nowait()
            except queue.Empty:
                break
            if line is None:
                continue
            if line.startswith(TRACE_PREFIX):
                trace = json.loads(line[len(TRACE_PREFIX):])
            else:
                self.output.append(line)
        self._proc.stdout.close()
        return trace


def http_warmup(host: str, port: int, requests) -> None:
    """Answer one warm-up request per batch bucket, one at a time."""
    with FitHTTPClient(host, port, timeout=60.0) as client:
        for request in requests:
            client.fit(WireFit.from_request(request))


def closed_loop(host: str, port: int, wires, *, clients: int, seconds: float) -> list[Sample]:
    """``clients`` keep-alive HTTP connections, each waiting for its reply.

    A client sends its next request only after the previous one returned;
    the loop stops sending once ``seconds`` have passed (or the request list
    is used up).  Latency runs from send to decoded response.
    """
    counter = itertools.count()
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds

    def client_loop() -> None:
        with FitHTTPClient(host, port, timeout=60.0) as client:
            while True:
                index = next(counter)
                now = time.perf_counter()
                if index >= len(wires) or now >= deadline:
                    return
                sample = Sample(index, now, now)
                try:
                    sample.result = client.fit(wires[index])
                except Exception as exc:  # every failure is counted by the gate
                    sample.error = exc
                sample.done = time.perf_counter()
                samples.append(sample)

    threads = [
        threading.Thread(target=client_loop, name=f"perfbench-client-{i}") for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(samples, key=lambda sample: sample.index)


def poisson_offsets(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Arrival offsets of a Poisson process at ``rate`` per second."""
    rng = np.random.default_rng([int(seed), 4099])
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def open_loop(host: str, port: int, wires, offsets, *, drain_seconds: float = 30.0) -> list[Sample]:
    """One WebSocket stream fed on a fixed Poisson schedule.

    A sender thread sends request ``i`` at ``start + offsets[i]`` whether or
    not earlier ones were answered; a receiver thread stamps each reply.
    Latency runs from the *due* time, so a stalled sender or server shows up
    in every request that queued behind it; ``sent - due`` is the
    generator's own lag.
    """
    samples = [Sample(i, 0.0, 0.0) for i in range(len(offsets))]
    # With the default 5 ms switch interval the sender can wait that long
    # for the interpreter lock after its sleep ends; a short interval keeps
    # the offered load on schedule (the server runs in its own process).
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        _run_open_loop(host, port, wires, offsets, samples, drain_seconds)
    finally:
        sys.setswitchinterval(switch_interval)
    return samples


def _run_open_loop(host, port, wires, offsets, samples, drain_seconds) -> None:
    with StreamClient(host, port, timeout=drain_seconds) as client:
        start = time.perf_counter() + 0.05
        received = threading.Event()
        failure: list[BaseException] = []

        def receive() -> None:
            try:
                for _ in range(len(samples)):
                    frame = client.recv_frame()
                    sample = samples[int(frame.id)]
                    sample.done = time.perf_counter()
                    sample.result = frame
            except Exception as exc:  # a missing reply is a failed request
                failure.append(exc)
            finally:
                received.set()

        receiver = threading.Thread(target=receive, name="perfbench-stream-recv")
        receiver.start()
        for sample, offset in zip(samples, offsets):
            sample.due = start + float(offset)
            pause = sample.due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sample.sent = time.perf_counter()
            client.submit(wires[sample.index], frame_id=str(sample.index))
        received.wait(drain_seconds + 5.0)
        client.close()
        receiver.join(5.0)
    for sample in samples:
        frame = sample.result
        if frame is None:
            sample.error = failure[0] if failure else TimeoutError("no reply")
        elif frame.kind == "result":
            sample.result = WireResult.from_payload(frame.payload)
        else:
            sample.result = None
            sample.error = frame_to_error(WireError.from_payload(frame.payload))


def batch_round(scheduler, requests) -> list[Sample]:
    """One ``submit_many`` of a whole batch; each future stamps its own end."""
    start = time.perf_counter()
    samples = [Sample(i, start, start) for i in range(len(requests))]
    futures = scheduler.submit_many(requests)

    def stamp(sample):
        def done(_future):
            sample.done = time.perf_counter()

        return done

    for sample, future in zip(samples, futures):
        future.add_done_callback(stamp(sample))
    for sample, future in zip(samples, futures):
        try:
            sample.result = future.result()
        except Exception as exc:  # counted by the gate
            sample.error = exc
    return samples


def check_responses(samples, requests, reference_deconvolver) -> list[str]:
    """The correctness gate: compare every response with a one-shot fit.

    ``samples[i].result`` answers ``requests[samples[i].index]`` (a list or
    a dict keyed by sample index).  Returns
    one message per failed sample (an error, a missing reply, a coefficient
    gap above :data:`COEFFICIENT_TOLERANCE` or a lambda that is not
    bit-identical) and marks that sample's ``error``.
    """
    references: dict[str, object] = {}
    failures: list[str] = []
    for sample in samples:
        request = requests[sample.index]
        if sample.error is not None or sample.result is None:
            message = repr(sample.error) if sample.error is not None else "no result"
            failures.append(f"request {sample.index}: {message}")
            continue
        key = request.fingerprint()
        if key not in references:
            references[key] = serial_reference(reference_deconvolver, [request])[0]
        reference = references[key]
        result = sample.result
        coefficients = (
            result.coefficients_array if isinstance(result, WireResult) else result.coefficients
        )
        gap = float(np.max(np.abs(np.asarray(coefficients) - reference.coefficients)))
        if not gap <= COEFFICIENT_TOLERANCE or float(result.lam) != float(reference.lam):
            sample.error = AssertionError(
                f"coefficient gap {gap:.3e}, lam {result.lam!r} vs {reference.lam!r}"
            )
            failures.append(f"request {sample.index}: {sample.error}")
    return failures
