"""Request canonicalization, both backends, and the retry loop."""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

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
    request_digest,
)
from toc.records import write_records


class TestChatRequest:
    def test_single_turn(self):
        req = ChatRequest("mllm", "describe", media=("v#clip0",), seed=3)
        assert (req.model_role, req.text, req.media) == ("mllm", "describe", ("v#clip0",))
        assert (req.temperature, req.max_tokens, req.seed) == (0.0, 1024, 3)

    def test_unknown_role(self):
        with pytest.raises(ValueError):
            ChatRequest("oracle", "hi")

    def test_negative_temperature(self):
        with pytest.raises(ValueError):
            ChatRequest("llm", "hi", temperature=-0.1)

    def test_nonpositive_max_tokens(self):
        with pytest.raises(ValueError):
            ChatRequest("llm", "hi", max_tokens=0)

    def test_media_only_for_mllm(self):
        with pytest.raises(ValueError):
            ChatRequest("llm", "hi", media=("v#clip0",))
        ChatRequest("mllm", "hi", media=("v#clip0",))


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

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_attempts": 0}, {"base_delay_s": -1.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


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
