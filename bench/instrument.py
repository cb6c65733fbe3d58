"""Benchmark-owned injection points: spans, a latency backend and a gateway proxy.

Nothing here changes the program.  The latency wrapper replaces the entries
of the ``backends`` map that ``build_gateway`` returns, and the proxy stands
in for the gateway object the pipelines are handed.  Untraced runs use the
same wrapper and proxy with no tracer, so both runs make the same calls.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path


class Tracer:
    """Spans of one traced iteration, kept in memory until the benchmark writes them out.

    A span's parent is the innermost span open on its own thread; spans opened
    on a pool thread with nothing open there hang under the current stage.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage: int | None = None

    @contextmanager
    def span(self, name: str, *, stage: bool = False, **attrs: object):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._stage
        span_id = next(self._ids)
        stack.append(span_id)
        if stage:
            self._stage = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if stage:
                self._stage = None
            self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                               "parent": parent, "run": self.run_id, **attrs})


def span(tracer: Tracer | None, name: str, **attrs: object):
    """A span when tracing, otherwise a no-op context."""
    return nullcontext() if tracer is None else tracer.span(name, **attrs)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")


def covered_s(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    totals: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered_s(children.get(s["id"], []), s["start"], s["end"])
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


@dataclass
class Traffic:
    """What one gateway saw; lists are only appended to, which is safe across pool threads."""

    calls: list = field(default_factory=list)
    attempts: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def clear(self) -> None:
        self.calls.clear()
        self.attempts.clear()
        self.errors.clear()

    @property
    def retries(self) -> int:
        return len(self.attempts) - len(self.calls)


class LatencyBackend:
    """Wraps one role's backend: sleeps the injected latency, then answers from the inner backend."""

    def __init__(self, inner, latency_s: float, traffic: Traffic, tracer: Tracer | None) -> None:
        self.inner = inner
        self.latency_s = latency_s
        self.traffic = traffic
        self.tracer = tracer

    def complete(self, request):
        self.traffic.attempts.append(request)
        with span(self.tracer, "backend"):
            if self.latency_s:
                time.sleep(self.latency_s)
            return self.inner.complete(request)


class GatewayProxy:
    """Stands in for a Gateway: records every request and failure, then delegates."""

    def __init__(self, gateway, traffic: Traffic, tracer: Tracer | None) -> None:
        self.gateway = gateway
        self.traffic = traffic
        self.tracer = tracer

    def complete(self, request):
        self.traffic.calls.append(request)
        with span(self.tracer, "gateway", role=request.model_role):
            try:
                return self.gateway.complete(request)
            except Exception:
                self.traffic.errors.append(request)
                raise


def instrument(gateway, latency_s: float, tracer: Tracer | None) -> tuple[GatewayProxy, Traffic]:
    """Wrap every backend of a built gateway and return the proxy the pipelines get."""
    traffic = Traffic()
    gateway.backends = {
        role: LatencyBackend(backend, latency_s, traffic, tracer)
        for role, backend in gateway.backends.items()
    }
    return GatewayProxy(gateway, traffic, tracer), traffic
