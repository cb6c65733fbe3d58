"""Structured run configuration and backend wiring.

One JSON config file drives every subcommand; CLI flags override single
fields.  Paths inside the config resolve relative to the config file's own
directory so a corpus directory stays relocatable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import urlsplit

from .errors import ConfigError
from .gateway import (
    Backend,
    Gateway,
    HttpBackend,
    MockBackend,
    MODEL_ROLES,
)
from .records import SHAPES, check_record, dump_record

API_KEY_ENV = "TOC_API_KEY"

BACKEND_KINDS = ("mock", "http")

# The longest first retry delay or request timeout taken, in seconds:
# time.sleep and socket timeouts refuse waits not far above it.
MAX_WAIT_S = 1e9


@dataclass(frozen=True)
class BackendConfig:
    """How one model role is served."""

    kind: str = "mock"
    endpoint: str | None = None
    model: str | None = None
    timeout_s: float = 60.0


@dataclass(frozen=True)
class Config:
    """The keys a command reads from the config file; records.SHAPES checks them."""

    backends: dict[str, BackendConfig] = field(default_factory=dict)
    m_trials: int = 8
    parallelism: int = 1
    strict_parsing: bool = True
    mock_table_path: str | None = None
    trial_temperature: float = 1.0
    retry_max_attempts: int = 3
    retry_base_delay_s: float = 0.5


def _read_object(cls: type, shape: str, raw: object, name: str, where: str) -> Config | BackendConfig:
    """`raw` as a `cls`: a JSON object of SHAPES[shape] keys that check_record takes, each
    wait at most MAX_WAIT_S.  A fault is a ConfigError, one in a key prefixed with `where`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    for key in raw:
        if key not in SHAPES[shape]:
            raise ConfigError(f"{where}unknown {shape} key {key!r}")
    obj = cls(**raw)
    try:
        check_record(vars(obj), shape)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{exc}") from None
    for key in ("retry_base_delay_s", "timeout_s"):
        if getattr(obj, key, 0) > MAX_WAIT_S:
            raise ConfigError(f"{where}{key} must be <= 1e9 seconds, got {getattr(obj, key)!r}")
    return obj


def _backend_config(role: str, entry: object) -> BackendConfig:
    if role not in MODEL_ROLES:
        raise ConfigError(f"unknown backend role {role!r}")
    backend = _read_object(BackendConfig, "backend", entry, f"backend {role!r}", f"backend {role!r}: ")
    if backend.kind not in BACKEND_KINDS:
        raise ConfigError(
            f"backend {role!r}: backend kind must be one of {BACKEND_KINDS}, got {backend.kind!r}"
        )
    if backend.kind == "http":
        if not backend.endpoint:
            raise ConfigError(f"backend {role!r} needs key 'endpoint'")
        try:
            url = urlsplit(backend.endpoint)
            url.port  # raises ValueError unless a port it gives is a number in 0..65535
        except ValueError:  # that, or an unclosed IPv6 bracket as in "http://[::1"
            url = urlsplit("")  # no scheme and no host: refused below
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(f"backend {role!r}: endpoint {backend.endpoint!r} is not an http(s) URL")
        if not backend.model:
            raise ConfigError(f"backend {role!r} needs key 'model'")
    return backend


def load_config(path: str | Path) -> Config:
    """Parse and validate a JSON config file; unknown keys are errors."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        dump_record(raw).encode("utf-8")  # no lone surrogate escape
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    # malformed JSON, bytes that are not UTF-8, a lone surrogate, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    # backends is an object before its entries are read
    config = _read_object(Config, "config", raw, "config root", "")
    backends = {role: _backend_config(role, entry) for role, entry in config.backends.items()}
    config = replace(config, backends=backends)
    mock_table = config.mock_table_path
    if mock_table is not None and "\0" in mock_table:  # open() raises ValueError, not OSError
        raise ConfigError(f"mock_table_path must be a path without a NUL character, got {mock_table!r}")
    if mock_table is not None and not Path(mock_table).is_absolute():
        return replace(config, mock_table_path=str(path.parent / mock_table))
    return config


def apply_overrides(config: Config, **overrides: object) -> Config:
    """Replace any non-None override fields; flags win over the file.

    The CLI checks each flag's value; the config file's values were checked
    by load_config.
    """
    changed = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **changed) if changed else config


def build_gateway(config: Config) -> Gateway:
    """Construct per-role backends; mock roles share one response table."""
    mock: MockBackend | None = None
    backends: dict[str, Backend] = {}
    for role in MODEL_ROLES:
        backend_config = config.backends.get(role, BackendConfig())
        if backend_config.kind == "mock":
            if config.mock_table_path is None:
                raise ConfigError(f"backend {role!r} is mock but config has no key 'mock_table_path'")
            if mock is None:
                try:
                    mock = MockBackend.from_file(config.mock_table_path)
                except OSError as exc:
                    raise ConfigError(
                        f"cannot read mock_table_path {config.mock_table_path}: {exc.strerror}"
                    ) from None
            backends[role] = mock
        else:
            backends[role] = HttpBackend(
                endpoint=backend_config.endpoint or "",
                model=backend_config.model or "",
                api_key=os.environ.get(API_KEY_ENV),
                timeout_s=backend_config.timeout_s,
            )
    return Gateway(
        backends=backends,
        max_in_flight=config.parallelism,
        retry_max_attempts=config.retry_max_attempts,
        retry_base_delay_s=config.retry_base_delay_s,
    )
