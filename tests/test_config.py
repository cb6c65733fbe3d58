"""Config loading: the eight keys, their types and bounds, and overrides."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from toc.cli import main
from toc.config import (
    BackendConfig,
    Config,
    apply_overrides,
    build_gateway,
    load_config,
)
from toc.errors import ConfigError
from toc.gateway import HttpBackend, RetryPolicy
from toc.records import SHAPES

RETIRED_KEYS = ("tau", "band_lo", "band_hi", "target_rl_size", "seed")

# Each value breaks one key's type or bound; none may reach a model call.
WRONG_VALUES = [
    {"m_trials": "8"},
    {"parallelism": None},
    {"mock_table_path": 5},
    {"retry_base_delay_s": -1},
    {"retry_max_attempts": 0},
    {"retry_max_attempts": 2.5},
    {"backends": []},
    {"strict_parsing": "no"},
    {"parallelism": 2.5},
    # time.sleep cannot wait this long: the first retry would raise OverflowError
    {"retry_base_delay_s": 1e10},
    # open() refuses a path holding NUL with a ValueError, which is no OSError
    {"mock_table_path": "table\u0000.records"},
]


def write_config(tmp_path: Path, config: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_config_has_exactly_the_eight_read_keys():
    assert [f.name for f in fields(Config)] == [
        "backends", "m_trials", "parallelism", "strict_parsing", "mock_table_path",
        "trial_temperature", "retry_max_attempts", "retry_base_delay_s",
    ]
    assert list(SHAPES["config"]) == [f.name for f in fields(Config)]
    assert list(SHAPES["backend"]) == [f.name for f in fields(BackendConfig)]


def test_empty_config_takes_the_defaults(tmp_path):
    assert load_config(write_config(tmp_path, {})) == Config()


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_retired_key_is_unknown(tmp_path, key):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        load_config(write_config(tmp_path, {key: 1}))


@pytest.mark.parametrize("bad", WRONG_VALUES, ids=lambda bad: json.dumps(bad))
def test_wrong_value_is_config_error(tmp_path, bad):
    (key,) = bad
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        load_config(write_config(tmp_path, bad))


@pytest.mark.parametrize(
    "bad",
    [
        {"m_trials": True},
        {"trial_temperature": False},
        {"m_trials": 0},
        {"trial_temperature": -0.5},
        {"parallelism": 1e300},
        {"retry_base_delay_s": float("nan")},
        {"retry_base_delay_s": float("inf")},
        {"mock_table_path": ["a"]},
    ],
    ids=["bool_as_int", "bool_as_float", "int_below_bound", "float_below_bound",
         "float_as_int", "nan", "inf", "list_as_string"],
)
def test_bools_and_non_finite_numbers_are_rejected(tmp_path, bad):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))


def test_int_counts_as_float(tmp_path):
    config = load_config(write_config(tmp_path, {"trial_temperature": 0, "retry_base_delay_s": 2}))
    assert config.trial_temperature == 0 and config.retry_base_delay_s == 2


def test_waits_up_to_1e9_seconds_are_taken(tmp_path):
    config = load_config(write_config(tmp_path, {"retry_base_delay_s": 1e9,
                                                 "backends": {"llm": {"timeout_s": 1e9}}}))
    assert config.retry_base_delay_s == 1e9 and config.backends["llm"].timeout_s == 1e9


def test_relative_mock_table_resolves_against_config_dir(tmp_path):
    (tmp_path / "corpus").mkdir()
    path = write_config(tmp_path / "corpus", {"mock_table_path": "table.records"})
    assert load_config(path).mock_table_path == str(tmp_path / "corpus" / "table.records")


def test_absolute_mock_table_is_kept(tmp_path):
    table = str(tmp_path / "elsewhere" / "table.records")
    assert load_config(write_config(tmp_path, {"mock_table_path": table})).mock_table_path == table


@pytest.mark.parametrize("missing", ["endpoint", "model"])
def test_http_backend_needs_endpoint_and_model(tmp_path, missing):
    backend = {"kind": "http", "endpoint": "https://example.invalid/v1", "model": "m"}
    del backend[missing]
    with pytest.raises(ConfigError, match=f"backend 'mllm' needs key '{missing}'"):
        load_config(write_config(tmp_path, {"backends": {"mllm": backend}}))


@pytest.mark.parametrize(
    "backends,message",
    [
        ({"mllm": "mock"}, "backend 'mllm' must be a JSON object"),
        ({"mllm": {"kind": "mock", "retries": 2}}, "unknown backend key 'retries'"),
        ({"vision": {"kind": "mock"}}, "unknown backend role 'vision'"),
        ({"llm": {"kind": "grpc"}}, "backend kind must be one of"),
        ({"llm": {"kind": 1}}, "backend 'llm': kind must be a string"),
        ({"llm": {"kind": "mock", "timeout_s": "60"}}, "backend 'llm': timeout_s must be a number"),
        ({"llm": {"kind": "mock", "timeout_s": 0}}, "backend 'llm': timeout_s must be finite"),
        # a socket timeout this long is an OverflowError raised out of requests
        ({"mllm": {"kind": "http", "endpoint": "https://example.test", "model": "m",
                   "timeout_s": 1e10}}, r"backend 'mllm': timeout_s must be <= 1e9 seconds"),
    ],
)
def test_bad_backend_entry_is_config_error(tmp_path, backends, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path, {"backends": backends}))


@pytest.mark.parametrize(
    "name,content,message",
    [
        ("missing.json", None, "cannot read config file .*: No such file"),
        ("", None, "cannot read config file .*: Is a directory"),
        ("latin1.json", b"\xff{}", "config file is not valid JSON: 'utf-8' codec"),
        ("cut.json", b'{"m_trials": ', "config file is not valid JSON"),
        ("surrogate.json", b'{"mock_table_path": "\\ud800"}', "config file is not valid JSON"),
        ("list.json", b"[]", "config root must be a JSON object"),
    ],
    ids=["missing", "directory", "not_utf8", "cut", "lone_surrogate", "not_an_object"],
)
def test_unreadable_config_file_is_config_error(tmp_path, name, content, message):
    if content is not None:
        (tmp_path / name).write_bytes(content)
    with pytest.raises(ConfigError, match=message):
        load_config(tmp_path / name)


@pytest.mark.parametrize("depth", [3000, 100_000])
def test_backends_nested_too_deep_is_config_error(tmp_path, depth):
    path = tmp_path / "config.json"
    path.write_text('{"backends": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("table", ["missing.records", "."], ids=["missing", "directory"])
def test_unreadable_mock_table_is_config_error(tmp_path, table):
    config = load_config(write_config(tmp_path, {"mock_table_path": table}))
    with pytest.raises(ConfigError, match="cannot read mock_table_path"):
        build_gateway(config)


def test_build_gateway_passes_each_config_value(tmp_path, monkeypatch):
    monkeypatch.setenv("TOC_API_KEY", "secret")
    config = load_config(write_config(tmp_path, {
        "backends": {
            "mllm": {"kind": "http", "endpoint": "https://a.test/v1", "model": "vision"},
            "llm": {"kind": "http", "endpoint": "https://b.test/v1", "model": "text",
                    "timeout_s": 5.5},
        },
        "parallelism": 3,
        "retry_max_attempts": 5,
        "retry_base_delay_s": 0.25,
    }))
    gateway = build_gateway(config)
    served = {
        role: (type(backend), backend.endpoint, backend.model, backend.api_key, backend.timeout_s)
        for role, backend in gateway.backends.items()
    }
    assert served == {
        "mllm": (HttpBackend, "https://a.test/v1", "vision", "secret", 60.0),
        "llm": (HttpBackend, "https://b.test/v1", "text", "secret", 5.5),
    }
    assert gateway.retry == RetryPolicy(max_attempts=5, base_delay_s=0.25)
    assert gateway.max_in_flight == 3


def test_apply_overrides_replaces_given_fields(tmp_path):
    config = load_config(write_config(tmp_path, {"parallelism": 2}))
    assert apply_overrides(config, parallelism=None, m_trials=None) is config
    assert apply_overrides(config, parallelism=4).parallelism == 4


@pytest.mark.parametrize(
    "bad", WRONG_VALUES + [{"band_lo": 0.9}, {"tau": 0.5, "seed": 3, "target_rl_size": 9}],
    ids=lambda bad: json.dumps(bad),
)
def test_bad_config_fails_estimate_demand_before_any_call(corpus, tmp_path, capsys, bad):
    paths = corpus.manifest["paths"]
    config = json.loads(Path(paths["config"]).read_text(encoding="utf-8"))
    config["mock_table_path"] = paths["mock_table"]
    out = tmp_path / "demand.records"
    code = main(
        [
            "estimate-demand", "--qa", paths["qa"],
            "--config", str(write_config(tmp_path, {**config, **bad})), "-o", str(out),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err
    assert "band must" not in err
    (entry,) = [json.loads(line) for line in Path(f"{out}.report").read_text().splitlines()]
    assert entry["kind"] == "error" and entry["error"] == "ConfigError"
    assert not out.exists()
