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
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol

from .errors import AuthError, ConfigError, GatewayError, RecordError
from .records import check_record, json_encoder, parse_records

MODEL_ROLES = ("mllm", "llm")


def ordered_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """fn over items, up to `workers` at once, each result yielded in item order.

    At most 2 * workers items are submitted and not yet taken; the next item
    is pulled only as a result is taken.  The pool starts when the first
    result is asked for, so a caller that takes none builds none.  On an
    error, or when the caller closes the generator, the items still queued
    are cancelled and the running ones finish before it returns.  Each of
    the `workers` is a thread; one the system refuses to start is a
    ConfigError naming their number.
    """
    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=workers)

    def submit(item):
        try:
            return pool.submit(fn, item)
        except RuntimeError as exc:  # only a thread the system refused; fn raises in its future
            raise ConfigError(f"parallelism {workers}: cannot start a worker thread: {exc}") from exc

    try:
        pending = deque(submit(item) for item in islice(items, 2 * workers))
        while pending:
            yield pending.popleft().result()
            pending.extend(submit(item) for item in islice(items, 1))
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
        self.table = table

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
            raise GatewayError(
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
        # a bearer token is one or more of ! to ~, and no message repeats the key
        if not (self.api_key.isascii() and self.api_key.isprintable() and " " not in self.api_key):
            raise AuthError("TOC_API_KEY must hold only visible ASCII characters (! to ~)")
        try:
            response = self.post(
                self.endpoint,
                json=self._payload(request),
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=self.timeout_s,
            )
        except self._requests.Timeout as exc:
            raise GatewayError(f"no reply within {self.timeout_s}s") from exc
        # refused or dropped, or a reply body that breaks off or cannot be decoded
        except (self._requests.ConnectionError, self._requests.exceptions.ChunkedEncodingError,
                self._requests.exceptions.ContentDecodingError) as exc:
            raise GatewayError(f"connection to {self.endpoint} failed: {exc}") from exc
        status = response.status_code
        if status in (401, 403):
            raise AuthError(f"backend rejected credential (status {status})")
        if status != 200:
            raise GatewayError(f"backend error (status {status})")
        try:
            content = response.json()["choices"][0]["message"]["content"]
            str.encode(content, "utf-8")  # TypeError unless text, ValueError on a lone surrogate
        # RecursionError: a body nested deeper than the JSON decoder goes
        except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
            raise GatewayError(f"malformed backend response: {exc}") from exc
        return content


@dataclass
class Gateway:
    """Routes requests to per-role backends with retries and bounded concurrency."""

    backends: dict[str, Backend]
    max_in_flight: int
    retry_max_attempts: int = 1
    retry_base_delay_s: float = 0.0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        self._semaphore = threading.Semaphore(self.max_in_flight)

    def complete(self, request: ChatRequest) -> str:
        backend = self.backends[request.model_role]
        with self._semaphore:
            for attempt in range(self.retry_max_attempts - 1):
                try:
                    return backend.complete(request)
                except GatewayError:  # every backend failure but a credential fault, an AuthError
                    # each wait doubles the last; a float 2**attempt overflows from 1024
                    self.sleep(math.ldexp(self.retry_base_delay_s, attempt))
            return backend.complete(request)
