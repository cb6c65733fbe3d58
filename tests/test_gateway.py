"""Request canonicalization, both backends, the retry loop and the ordered map."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import requests

from toc.errors import AuthError, BackendUnavailableError, GatewayTimeoutError, RecordError
from toc.gateway import (
    ChatRequest,
    Gateway,
    HttpBackend,
    MockBackend,
    RetryPolicy,
    canonical_request,
    ordered_map,
    request_digest,
)
from toc.records import write_records


class TestChatRequest:
    def test_single_turn(self):
        req = ChatRequest("mllm", "describe", media=("v#clip0",), seed=3)
        assert (req.model_role, req.text, req.media) == ("mllm", "describe", ("v#clip0",))
        assert (req.temperature, req.max_tokens, req.seed) == (0.0, 1024, 3)


class TestRequestDigest:
    def test_digest_matches_hand_built_canonical_json(self):
        # frozen byte layout: sorted keys, tight separators, null seed
        payload = (
            '{"max_tokens":1024,"messages":[{"media":[],"role":"user","text":"hi"}],'
            '"model_role":"llm","seed":null,"temperature":0.0}'
        )
        expect = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        assert request_digest(ChatRequest("llm", "hi")) == expect

    def test_digest_is_16_hex(self):
        digest = request_digest(ChatRequest("llm", "hi"))
        assert len(digest) == 16 and int(digest, 16) >= 0

    def test_equal_requests_share_digest(self):
        assert request_digest(ChatRequest("llm", "hi")) == request_digest(ChatRequest("llm", "hi"))

    @pytest.mark.parametrize(
        "variant",
        [
            ChatRequest("llm", "hi!"),
            ChatRequest("mllm", "hi"),
            ChatRequest("llm", "hi", temperature=1.0),
            ChatRequest("llm", "hi", max_tokens=8),
            ChatRequest("llm", "hi", seed=0),
        ],
    )
    def test_any_field_change_moves_digest(self, variant):
        assert request_digest(variant) != request_digest(ChatRequest("llm", "hi"))

    def test_canonical_request_lists_every_field(self):
        assert canonical_request(ChatRequest("llm", "hi", seed=2)) == {
            "model_role": "llm",
            "messages": [{"role": "user", "text": "hi", "media": []}],
            "temperature": 0.0,
            "max_tokens": 1024,
            "seed": 2,
        }


class TestMockBackend:
    def test_scripted_reply(self):
        req = ChatRequest("llm", "hi")
        backend = MockBackend({request_digest(req): "hello"})
        assert backend.complete(req) == "hello"

    def test_missing_digest_fails_loudly(self):
        backend = MockBackend({})
        with pytest.raises(BackendUnavailableError, match="mock table has no reply"):
            backend.complete(ChatRequest("llm", "hi"))

    def test_from_file(self, tmp_path):
        req = ChatRequest("llm", "hi")
        path = tmp_path / "table.records"
        write_records(
            path, [{"digest": request_digest(req), "reply": "hello", "note": "greeting"}]
        )
        assert MockBackend.from_file(path).complete(req) == "hello"

    def test_from_file_tolerates_identical_duplicates(self, tmp_path):
        path = tmp_path / "table.records"
        write_records(path, [{"digest": "d", "reply": "r"}, {"digest": "d", "reply": "r"}])
        assert MockBackend.from_file(path).table == {"d": "r"}

    def test_from_file_rejects_conflicts(self, tmp_path):
        path = tmp_path / "table.records"
        write_records(path, [{"digest": "d", "reply": "r1"}, {"digest": "d", "reply": "r2"}])
        with pytest.raises(RecordError, match="table.records:2: conflicting .* given on line 1"):
            MockBackend.from_file(path)

    def test_from_file_names_a_line_nested_too_deep(self, tmp_path):
        path = tmp_path / "table.records"
        write_records(path, [{"digest": "d", "reply": "r"}])
        path.write_text(path.read_text() + "[" * 100_000 + "\n")
        with pytest.raises(RecordError, match=rf"^{path}:2: malformed JSON: "):
            MockBackend.from_file(path)


class FakeResponse:
    def __init__(self, status_code=200, body=None, bad_json=False):
        self.status_code = status_code
        self._body = body if body is not None else {
            "choices": [{"message": {"content": "reply text"}}]
        }
        self._bad_json = bad_json

    def json(self):
        if self._bad_json:
            raise ValueError("not json")
        return self._body


class FakePost:
    """Records every call; yields queued responses or raises queued errors."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def http_backend(post, api_key="k"):
    return HttpBackend(
        endpoint="https://example.test/v1/chat/completions",
        model="video-model",
        api_key=api_key,
        timeout_s=9.0,
        post=post,
    )


class TestHttpBackend:
    def test_success_parses_content(self):
        post = FakePost([FakeResponse()])
        assert http_backend(post).complete(ChatRequest("llm", "hi")) == "reply text"
        call = post.calls[0]
        assert call["headers"] == {"Authorization": "Bearer k"}
        assert call["timeout"] == 9.0
        assert call["json"]["messages"] == [{"role": "user", "content": "hi"}]
        assert "seed" not in call["json"]

    def test_media_and_seed_in_payload(self):
        post = FakePost([FakeResponse()])
        http_backend(post).complete(ChatRequest("mllm", "describe", media=("v#clip1",), seed=4))
        payload = post.calls[0]["json"]
        assert payload["seed"] == 4
        assert payload["messages"][0]["content"] == [
            {"type": "text", "text": "describe"},
            {"type": "video_url", "video_url": {"url": "v#clip1"}},
        ]

    def test_missing_key_fails_before_any_network_call(self):
        post = FakePost([])
        with pytest.raises(AuthError, match="TOC_API_KEY"):
            http_backend(post, api_key=None).complete(ChatRequest("llm", "hi"))
        assert post.calls == []

    def test_timeout(self):
        post = FakePost([requests.Timeout("slow")])
        with pytest.raises(GatewayTimeoutError):
            http_backend(post).complete(ChatRequest("llm", "hi"))

    def test_connection_refused(self):
        post = FakePost([requests.ConnectionError("refused")])
        with pytest.raises(BackendUnavailableError):
            http_backend(post).complete(ChatRequest("llm", "hi"))

    @pytest.mark.parametrize("status", [401, 403])
    def test_credential_rejection(self, status):
        post = FakePost([FakeResponse(status_code=status)])
        with pytest.raises(AuthError):
            http_backend(post).complete(ChatRequest("llm", "hi"))

    @pytest.mark.parametrize("status", [408, 429, 500, 502, 503, 504, 418])
    def test_non_auth_failures_are_transient(self, status):
        post = FakePost([FakeResponse(status_code=status)])
        with pytest.raises(BackendUnavailableError):
            http_backend(post).complete(ChatRequest("llm", "hi"))

    def test_malformed_body(self):
        post = FakePost([FakeResponse(bad_json=True)])
        with pytest.raises(BackendUnavailableError):
            http_backend(post).complete(ChatRequest("llm", "hi"))

    def test_body_nested_too_deep(self):
        response = requests.models.Response()
        response.status_code, response.encoding = 200, "utf-8"
        response._content = b'{"choices": ' + b"[" * 100_000
        post = FakePost([response])
        with pytest.raises(BackendUnavailableError, match="^malformed backend response: "):
            http_backend(post).complete(ChatRequest("llm", "hi"))

    @pytest.mark.parametrize("content", [None, 5, "a\ud800b"], ids=["null", "number", "lone_surrogate"])
    def test_content_must_be_encodable_text(self, content):
        post = FakePost([FakeResponse(body={"choices": [{"message": {"content": content}}]})])
        with pytest.raises(BackendUnavailableError, match="^malformed backend response: "):
            http_backend(post).complete(ChatRequest("llm", "hi"))

    def test_malformed_content_is_retried(self):
        null = FakeResponse(body={"choices": [{"message": {"content": None}}]})
        post = FakePost([null, FakeResponse()])
        gateway = Gateway(backends={"llm": http_backend(post)}, sleep=lambda s: None)
        assert gateway.complete(ChatRequest("llm", "hi")) == "reply text"
        assert len(post.calls) == 2


# Run in a fresh interpreter: this module imports requests itself.
ONLY_HTTP_LOADS_REQUESTS = """
import sys
import toc.cli
assert "requests" not in sys.modules, "import toc.cli"
shots, clips, qa, config, group, out = sys.argv[1:]
for argv in (
    ["segment", "--shots", shots, "-o", f"{out}/clips.records"],
    ["reward", "--group", group],
    ["build-sft", "--videos", clips, "--qa", qa, "--config", config, "-o", f"{out}/sft.records"],
):
    assert toc.cli.main(argv) == 0, argv
    assert "requests" not in sys.modules, argv[0]
from toc.config import BackendConfig, Config, build_gateway
from toc.gateway import HttpBackend
http = BackendConfig("http", "http://localhost:9/v1", "m")
gateway = build_gateway(Config(backends={"mllm": http, "llm": http}))
import requests
assert all(type(b) is HttpBackend and b.post is requests.post for b in gateway.backends.values())
print("ok")
"""


def test_requests_is_loaded_only_by_an_http_backend(corpus, tmp_path):
    paths = corpus.manifest["paths"]
    group = tmp_path / "groups.records"
    write_records(group, [{"gamma": 0.5, "correct": [True, False]}])
    args = [paths["shots"], paths["clips"], paths["qa"], paths["config"], str(group), str(tmp_path)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-c", ONLY_HTTP_LOADS_REQUESTS, *args],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith("ok\n")


class FlakyBackend:
    def __init__(self, failures, error=BackendUnavailableError, reply="ok"):
        self.failures = failures
        self.error = error
        self.reply = reply
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error("transient")
        return self.reply


class TestRetryPolicy:
    def test_geometric_delays(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.5)
        assert [policy.delay_s(a) for a in range(3)] == [0.5, 1.0, 2.0]

    def test_delays_past_the_float_range_of_two_powers(self):
        # 2.0**1024 overflows a float, but a zero delay doubles to zero and a tiny one stays finite
        assert RetryPolicy(max_attempts=1100, base_delay_s=0.0).delay_s(1099) == 0.0
        assert RetryPolicy(base_delay_s=2.0**-1074).delay_s(1100) == 2.0**26


class TestGateway:
    def gateway(self, backend, max_attempts=3, max_in_flight=4):
        delays = []
        gw = Gateway(
            backends={"llm": backend},
            retry=RetryPolicy(max_attempts=max_attempts, base_delay_s=0.5),
            max_in_flight=max_in_flight,
            sleep=delays.append,
        )
        return gw, delays

    def test_success_without_retries(self):
        backend = FlakyBackend(failures=0)
        gw, delays = self.gateway(backend)
        assert gw.complete(ChatRequest("llm", "hi")) == "ok"
        assert (backend.calls, delays) == (1, [])

    def test_recovers_after_transient_failures(self):
        backend = FlakyBackend(failures=2)
        gw, delays = self.gateway(backend)
        assert gw.complete(ChatRequest("llm", "hi")) == "ok"
        assert backend.calls == 3
        assert delays == [0.5, 1.0]  # backoff between attempts

    def test_gives_up_after_max_attempts(self):
        backend = FlakyBackend(failures=99)
        gw, delays = self.gateway(backend)
        with pytest.raises(BackendUnavailableError):
            gw.complete(ChatRequest("llm", "hi"))
        assert backend.calls == 3 and len(delays) == 2

    def test_timeouts_also_retry(self):
        backend = FlakyBackend(failures=1, error=GatewayTimeoutError)
        gw, _ = self.gateway(backend)
        assert gw.complete(ChatRequest("llm", "hi")) == "ok"
        assert backend.calls == 2

    def test_auth_errors_never_retry(self):
        backend = FlakyBackend(failures=99, error=AuthError)
        gw, delays = self.gateway(backend)
        with pytest.raises(AuthError):
            gw.complete(ChatRequest("llm", "hi"))
        assert backend.calls == 1 and delays == []

    def test_unknown_role(self):
        gw, _ = self.gateway(FlakyBackend(failures=0))
        with pytest.raises(BackendUnavailableError, match="no backend"):
            gw.complete(ChatRequest("mllm", "hi"))

    def test_http_retry_end_to_end(self):
        # two 429s then a 200: succeeds on the third attempt
        post = FakePost(
            [FakeResponse(status_code=429), FakeResponse(status_code=429), FakeResponse()]
        )
        gw, delays = self.gateway(http_backend(post))
        assert gw.complete(ChatRequest("llm", "hi")) == "reply text"
        assert len(post.calls) == 3 and len(delays) == 2

    def test_concurrency_is_bounded(self):
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}
        barrier_sleep = 0.01

        class SlowBackend:
            def complete(self, request):
                with lock:
                    state["now"] += 1
                    state["peak"] = max(state["peak"], state["now"])
                threading.Event().wait(barrier_sleep)
                with lock:
                    state["now"] -= 1
                return "ok"

        gw = Gateway(
            backends={"llm": SlowBackend()},
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
            max_in_flight=2,
            sleep=lambda s: None,
        )
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: gw.complete(ChatRequest("llm", "hi")), range(12)))
        assert results == ["ok"] * 12
        assert 1 <= state["peak"] <= 2

    def test_max_in_flight_validated(self):
        with pytest.raises(ValueError):
            Gateway(backends={}, max_in_flight=0)


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pulls_at_most_two_items_per_worker_ahead(self, workers):
        pulled = 0

        def items():
            nonlocal pulled
            for item in range(50):
                pulled += 1
                yield item

        started, release = threading.Event(), threading.Event()

        def fn(item):
            if item == 0:
                started.set()
                assert release.wait(timeout=30)
            return item * 2

        with ThreadPoolExecutor(max_workers=1) as caller:
            result = caller.submit(ordered_map, fn, items(), workers)
            assert started.wait(timeout=30)
            # the other workers finish every item they were given meanwhile
            assert not result.done() and not release.wait(timeout=0.2)
            assert pulled <= 2 * workers
            release.set()
            assert result.result(timeout=30) == [item * 2 for item in range(50)]
        assert pulled == 50

    @pytest.mark.parametrize("items", [[], [7]])
    def test_fewer_items_than_workers(self, items):
        assert ordered_map(lambda item: -item, items, 4) == [-item for item in items]

    def test_error_stops_pulling_items(self):
        pulled = []

        def items():
            for item in range(100):
                pulled.append(item)
                yield item

        def fn(item):
            if item == 3:
                raise ValueError("item 3")
            return item

        with pytest.raises(ValueError, match="item 3"):
            ordered_map(fn, items(), 2)
        assert len(pulled) <= 3 + 2 * 2
