"""Shared fixtures: scripted gateways and the session-wide mock corpus."""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from toc.gateway import ChatRequest, Gateway, MockBackend, RetryPolicy, request_digest
from toc.mockgen import synthesize_corpus


class CountingBackend:
    """Wraps a backend and counts completions; used to prove resume skips calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def complete(self, request: ChatRequest) -> str:
        self.calls += 1
        return self.inner.complete(request)


class CrashingBackend:
    """Raises after a fixed number of completions to simulate a mid-run crash."""

    def __init__(self, inner, crash_after: int) -> None:
        self.inner = inner
        self.crash_after = crash_after
        self.calls = 0

    def complete(self, request: ChatRequest) -> str:
        if self.calls >= self.crash_after:
            raise RuntimeError("simulated crash")
        self.calls += 1
        return self.inner.complete(request)


class FailingBackend:
    """Fails every call with a non-gateway error after a short delay.

    Thread-safe call counting; the delay stands in for backend latency so
    the failure lands while other work is still queued.
    """

    def __init__(self, delay_s: float = 0.01) -> None:
        self.delay_s = delay_s
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> str:
        with self._lock:
            self.calls += 1
        time.sleep(self.delay_s)
        raise RuntimeError("backend crashed")


def scripted_gateway(pairs, **overrides) -> Gateway:
    """Gateway whose mock answers exactly the given (request, reply) pairs."""
    table = {request_digest(req): reply for req, reply in pairs}
    backend = MockBackend(table)
    kwargs = dict(
        backends={"mllm": backend, "llm": backend},
        retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
        sleep=lambda s: None,
    )
    kwargs.update(overrides)
    return Gateway(**kwargs)


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """A 20-sample offline corpus; treat the directory as read-only."""
    out = tmp_path_factory.mktemp("corpus")
    manifest = synthesize_corpus(out, num_samples=20, seed=7, m_trials=8)
    return SimpleNamespace(dir=out, manifest=manifest)


@pytest.fixture
def fast_thread_switching():
    """Switch threads every microsecond so racy interleavings actually occur."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


# Tests marked @pytest.mark.criterion("...") are the behavior gates; their
# verdicts are echoed after the run so they survive output capture.


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is not None and report.when == "call":
        report.criterion_text = marker.args[0]


def pytest_terminal_summary(terminalreporter):
    verdicts = []
    for status, tag in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            text = getattr(report, "criterion_text", None)
            if text is not None:
                verdicts.append((report.location[2], tag, text, report.duration))
    if not verdicts:
        return
    terminalreporter.section("behavior gates")
    for _, tag, text, duration in sorted(verdicts):
        terminalreporter.write_line(f"[{tag}] criterion {text} ({duration:.2f}s)")
