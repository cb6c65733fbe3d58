"""Chat-completion access: one real HTTP backend, one scripted mock.

Both backends answer the same ChatRequest; which one serves a request is
decided per model role.  The mock looks replies up by a digest of the full
canonical request, which is what makes every pipeline test runnable offline
and byte-stable.  `ordered_map` is how both pipelines put their samples in
flight.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Protocol

from .errors import (
    AuthError,
    BackendUnavailableError,
    GatewayTimeoutError,
    RecordError,
)
from .records import check_record, json_encoder, parse_records

MODEL_ROLES = ("mllm", "llm")


def ordered_map(fn: Callable, items: Iterable, workers: int) -> list:
    """fn over items, up to `workers` at once, results in item order.

    At most 2 * workers items are submitted and not yet taken; the next item
    is pulled only as a result is taken.  On an error the items still queued
    are cancelled rather than run first.
    """
    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending = deque(pool.submit(fn, item) for item in islice(items, 2 * workers))
        results = []
        while pending:
            results.append(pending.popleft().result())
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
        return results
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion call: a single user message, fully determined by its fields."""

    model_role: str
    text: str
    media: tuple[str, ...] = ()
    temperature: float = 0.0
    max_tokens: int = 1024
    seed: int | None = None


def canonical_request(request: ChatRequest) -> dict:
    """The digested form; its one-message list keeps digests of stored tables stable."""
    return {
        "model_role": request.model_role,
        "messages": [{"role": "user", "text": request.text, "media": list(request.media)}],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "seed": request.seed,
    }


_canonical_json = json_encoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def request_digest(request: ChatRequest) -> str:
    """16 hex chars of sha256 over the canonical request JSON."""
    payload = _canonical_json(canonical_request(request))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class Backend(Protocol):
    def complete(self, request: ChatRequest) -> str: ...


def _table_entry(rec: dict) -> tuple[str, str]:
    check_record(rec, "mock table")
    return rec["digest"], rec["reply"]


class MockBackend:
    """Replies scripted per request digest; unknown digests fail loudly."""

    def __init__(self, table: dict[str, str]) -> None:
        self.table = dict(table)

    @classmethod
    def from_file(cls, path: str | Path) -> "MockBackend":
        """Read a table of {"digest", "reply"} lines; a digest may repeat only verbatim."""
        table: dict[str, str] = {}
        first_lines: dict[str, int] = {}
        for line_no, (digest, reply) in parse_records(path, _table_entry):
            first = first_lines.setdefault(digest, line_no)
            if table.setdefault(digest, reply) != reply:
                raise RecordError(
                    f"{path}:{line_no}: conflicting reply for digest {digest!r} "
                    f"given on line {first}"
                )
        return cls(table)

    def complete(self, request: ChatRequest) -> str:
        digest = request_digest(request)
        if digest not in self.table:
            preview = request.text[:80].replace("\n", " ")
            raise BackendUnavailableError(
                f"mock table has no reply for digest {digest} (prompt starts {preview!r})"
            )
        return self.table[digest]


class HttpBackend:
    """POST to an OpenAI-compatible chat-completions endpoint.

    The post callable is injectable so the retry and error contract is
    testable without a network; it defaults to requests.post.  requests is
    imported here, on the thread that builds the backend, so a run whose
    roles are all mock never loads the HTTP stack.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None,
        timeout_s: float,
        post: Callable | None = None,
    ) -> None:
        import requests

        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout_s = timeout_s
        self.post = requests.post if post is None else post
        self._requests = requests

    def _payload(self, request: ChatRequest) -> dict:
        content: object = request.text
        if request.media:
            content = [{"type": "text", "text": request.text}] + [
                {"type": "video_url", "video_url": {"url": ref}} for ref in request.media
            ]
        payload: dict = {
            "model": self.model,
            "messages": [{"role": "user", "content": content}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        return payload

    def complete(self, request: ChatRequest) -> str:
        if not self.api_key:
            raise AuthError("no API key set (export TOC_API_KEY)")
        try:
            response = self.post(
                self.endpoint,
                json=self._payload(request),
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=self.timeout_s,
            )
        except self._requests.Timeout as exc:
            raise GatewayTimeoutError(f"no reply within {self.timeout_s}s") from exc
        except self._requests.ConnectionError as exc:
            raise BackendUnavailableError(f"cannot reach {self.endpoint}: {exc}") from exc
        status = response.status_code
        if status in (401, 403):
            raise AuthError(f"backend rejected credential (status {status})")
        if status != 200:
            raise BackendUnavailableError(f"backend error (status {status})")
        try:
            content = response.json()["choices"][0]["message"]["content"]
            str.encode(content, "utf-8")  # TypeError unless text, ValueError on a lone surrogate
        # RecursionError: a body nested deeper than the JSON decoder goes
        except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
            raise BackendUnavailableError(f"malformed backend response: {exc}") from exc
        return content


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: each delay doubles the last, and attempts are capped."""

    max_attempts: int = 3
    base_delay_s: float = 0.5

    def delay_s(self, attempt: int) -> float:
        return math.ldexp(self.base_delay_s, attempt)  # a float 2**attempt overflows from 1024


# Every backend failure retries but a missing or rejected credential.
_RETRYABLE_ERRORS = (BackendUnavailableError, GatewayTimeoutError)


@dataclass
class Gateway:
    """Routes requests to per-role backends with retries and bounded concurrency."""

    backends: dict[str, Backend]
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_in_flight: int = 4
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        self._semaphore = threading.Semaphore(self.max_in_flight)

    def complete(self, request: ChatRequest) -> str:
        backend = self.backends.get(request.model_role)
        if backend is None:
            raise BackendUnavailableError(f"no backend configured for role {request.model_role!r}")
        with self._semaphore:
            for attempt in range(self.retry.max_attempts - 1):
                try:
                    return backend.complete(request)
                except _RETRYABLE_ERRORS:
                    self.sleep(self.retry.delay_s(attempt))
            return backend.complete(request)
