"""Shared fixtures: scripted gateways, the session-wide mock corpus and a
loopback chat-completions endpoint."""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from toc.errors import GatewayError
from toc.gateway import MODEL_ROLES, ChatRequest, Gateway, MockBackend, request_digest
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
    """Raises after a fixed number of completions to simulate a mid-run crash.

    Thread-safe call counting: exactly `crash_after` calls reach the inner backend.
    """

    def __init__(self, inner, crash_after: int) -> None:
        self.inner = inner
        self.crash_after = crash_after
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> str:
        with self._lock:
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


class OutageBackend:
    """Wraps a backend; a call numbered (from 0) inside any window [start, stop) raises GatewayError.

    Thread-safe call numbering; `requests` holds every request the wrapped
    backend answered.
    """

    def __init__(self, inner, *windows: tuple[int, int]) -> None:
        self.inner = inner
        self.windows = windows
        self.calls = 0
        self.requests: list[ChatRequest] = []
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> str:
        with self._lock:
            number = self.calls
            self.calls += 1
        if any(start <= number < stop for start, stop in self.windows):
            raise GatewayError(f"simulated outage (call {number})")
        with self._lock:
            self.requests.append(request)
        return self.inner.complete(request)


def scripted_gateway(pairs, **overrides) -> Gateway:
    """Gateway whose mock answers exactly the given (request, reply) pairs."""
    table = {request_digest(req): reply for req, reply in pairs}
    backend = MockBackend(table)
    kwargs = dict(
        backends={"mllm": backend, "llm": backend},
        max_in_flight=4,
        retry_max_attempts=1, retry_base_delay_s=0.0,
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


class LoopbackEndpoint:
    """What the loopback server answers from, and what it saw.

    `table` maps request digests to replies, as a mock table does; each role's
    backend names the model `MODELS` gives it.  `log` holds one
    (Authorization header, request digest) pair per request, in arrival order,
    and `connections` counts the connections accepted.  `errors` holds every
    exception a request handler raised, other than a lost connection; the
    fixture fails the test unless it is empty.
    A digest added to `truncate` gets one reply whose body breaks off: the
    headers promise the whole body, 13 bytes of it are sent, and the
    connection closes.
    `kill_at_call(pid, n)` sends SIGKILL to process `pid` when the n-th request
    from then on arrives; that request and every later one go unanswered until
    `kill` is set back to None.
    """

    MODELS = {role: f"{role}-model" for role in MODEL_ROLES}

    def __init__(self, url: str) -> None:
        self.url = url
        self.table: dict[str, str] = {}
        self.log: list[tuple[str | None, str]] = []
        self.truncate: set[str] = set()
        self.kill: tuple[int, int] | None = None  # (pid, length of `log` that kills it)
        self.connections = 0
        self.errors: list[Exception] = []
        self.lock = threading.Lock()

    def kill_at_call(self, pid: int, n: int) -> None:
        with self.lock:
            self.kill = (pid, len(self.log) + n)

    def backends(self) -> dict[str, dict]:
        """A config's `backends`: every role served over HTTP by this endpoint."""
        return {role: {"kind": "http", "endpoint": self.url, "model": model}
                for role, model in self.MODELS.items()}


class _ChatHandler(BaseHTTPRequestHandler):
    """Rebuilds the ChatRequest an OpenAI-style body encodes and answers it from the table."""

    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        # a reply's headers and body are two writes; don't let the second wait for an ACK
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.endpoint.lock:
            self.server.endpoint.connections += 1

    def do_POST(self) -> None:
        endpoint: LoopbackEndpoint = self.server.endpoint
        length = int(self.headers.get("Content-Length", -1))
        data = self.rfile.read(max(length, 0))
        if length < 0 or len(data) < length:  # the client was killed while it sent the request
            self.close_connection = True
            return
        body = json.loads(data)
        content = body["messages"][0]["content"]
        if isinstance(content, str):
            text, media = content, ()
        else:  # a text part, then one video_url part per media reference
            text, media = content[0]["text"], tuple(part["video_url"]["url"] for part in content[1:])
        roles = {model: role for role, model in endpoint.MODELS.items()}
        request = ChatRequest(roles[body["model"]], text, media, body["temperature"],
                              body["max_tokens"], body.get("seed"))
        digest = request_digest(request)
        with endpoint.lock:
            endpoint.log.append((self.headers.get("Authorization"), digest))
            cut = digest in endpoint.truncate
            endpoint.truncate.discard(digest)
            victim, kill_at = endpoint.kill or (0, math.inf)
            if len(endpoint.log) == kill_at:
                os.kill(victim, signal.SIGKILL)
            unanswered = len(endpoint.log) >= kill_at
        if unanswered:
            self.close_connection = True
            return
        if digest not in endpoint.table:
            self.reply(404, b"{}")
            return
        message = {"role": "assistant", "content": endpoint.table[digest]}
        self.reply(200, json.dumps({"choices": [{"message": message}]}).encode("utf-8"), cut)

    def reply(self, status: int, data: bytes, cut: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if cut:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data[:13] if cut else data)

    def log_message(self, format: str, *args) -> None:
        pass  # the endpoint's own log is enough


class _LoopbackServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address) -> None:
        error = sys.exc_info()[1]
        if not isinstance(error, ConnectionError):  # a killed client's socket is gone
            with self.endpoint.lock:
                self.endpoint.errors.append(error)


@pytest.fixture
def loopback_endpoint(monkeypatch):
    """An OpenAI-compatible chat-completions endpoint on 127.0.0.1; see LoopbackEndpoint."""
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    server = _LoopbackServer(("127.0.0.1", 0), _ChatHandler)
    host, port = server.server_address[:2]
    server.endpoint = LoopbackEndpoint(f"http://{host}:{port}/v1/chat/completions")
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield server.endpoint
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert server.endpoint.errors == []


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
