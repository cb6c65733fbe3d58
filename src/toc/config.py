"""Structured run configuration and backend wiring.

One JSON config file drives every subcommand; CLI flags override single
fields.  Paths inside the config resolve relative to the config file's own
directory so a corpus directory stays relocatable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .gateway import (
    Backend,
    Gateway,
    HttpBackend,
    MockBackend,
    MODEL_ROLES,
    RetryPolicy,
)

API_KEY_ENV = "TOC_API_KEY"

BACKEND_KINDS = ("mock", "http")


@dataclass(frozen=True)
class BackendConfig:
    """How one model role is served."""

    kind: str = "mock"
    endpoint: str | None = None
    model: str | None = None
    timeout_s: float = 60.0


@dataclass(frozen=True)
class Config:
    """The keys a command reads from the config file; FIELD_RULES checks them."""

    backends: dict[str, BackendConfig] = field(default_factory=dict)
    m_trials: int = 8
    parallelism: int = 1
    strict_parsing: bool = True
    mock_table_path: str | None = None
    trial_temperature: float = 1.0
    retry_max_attempts: int = 3
    retry_base_delay_s: float = 0.5

    def validate(self) -> "Config":
        _check_fields(self, "")
        for role, backend in self.backends.items():
            if role not in MODEL_ROLES:
                raise ConfigError(f"unknown backend role {role!r}")
            _check_fields(backend, f"backend {role!r}: ")
            if backend.kind not in BACKEND_KINDS:
                raise ConfigError(f"backend kind must be one of {BACKEND_KINDS}, got {backend.kind!r}")
            if backend.kind == "http":
                if not backend.endpoint:
                    raise ConfigError(f"backend {role!r} needs key 'endpoint'")
                if not backend.model:
                    raise ConfigError(f"backend {role!r} needs key 'model'")
        return self


# Every field of Config and BackendConfig: its JSON type and its lower bound
# (None for no bound).  A bool is not a number, an int counts as a float, a
# bounded number must also be finite, and a field whose default is None may
# also be null.
FIELD_RULES: dict[str, tuple[type, float | None]] = {
    "backends": (dict, None),
    "m_trials": (int, 1),
    "parallelism": (int, 1),
    "strict_parsing": (bool, None),
    "mock_table_path": (str, None),
    "trial_temperature": (float, 0),
    "retry_max_attempts": (int, 1),
    "retry_base_delay_s": (float, 0),
    "kind": (str, None),
    "endpoint": (str, None),
    "model": (str, None),
    "timeout_s": (float, 0.001),
}

_TYPE_NAMES = {
    dict: "an object",
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
}


def _check_fields(obj: Config | BackendConfig, where: str) -> None:
    for f in fields(obj):
        kind, lower = FIELD_RULES[f.name]
        value = getattr(obj, f.name)
        if value is None and f.default is None:
            continue
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{where}{f.name} must be {_TYPE_NAMES[kind]}, got {value!r}")
        if lower is not None and not lower <= value < math.inf:
            raise ConfigError(f"{where}{f.name} must be finite and >= {lower}, got {value!r}")


_CONFIG_KEYS = {f.name for f in fields(Config)}
_BACKEND_KEYS = {f.name for f in fields(BackendConfig)}


def _backend_config(role: str, entry: object) -> BackendConfig:
    if not isinstance(entry, dict):
        raise ConfigError(f"backend {role!r} must be a JSON object")
    for key in entry:
        if key not in _BACKEND_KEYS:
            raise ConfigError(f"unknown backend key {key!r} for role {role!r}")
    return BackendConfig(**entry)


def load_config(path: str | Path) -> Config:
    """Parse and validate a JSON config file; unknown keys are errors."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        json.dumps(raw, ensure_ascii=False).encode("utf-8")  # no lone surrogate escape
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON, bytes that are not UTF-8, a lone surrogate
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    backends = raw.get("backends", {})
    if isinstance(backends, dict):  # anything else fails validate()'s type check
        backends = {role: _backend_config(role, entry) for role, entry in backends.items()}
    config = Config(**{**raw, "backends": backends}).validate()
    mock_table = config.mock_table_path
    if mock_table is not None and not Path(mock_table).is_absolute():
        return replace(config, mock_table_path=str(path.parent / mock_table))
    return config


def apply_overrides(config: Config, **overrides: object) -> Config:
    """Replace any non-None override fields; flags win over the file."""
    changed = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **changed).validate() if changed else config


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
        retry=RetryPolicy(
            max_attempts=config.retry_max_attempts,
            base_delay_s=config.retry_base_delay_s,
        ),
        max_in_flight=config.parallelism,
    )
