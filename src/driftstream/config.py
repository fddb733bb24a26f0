"""Flat key = value experiment configs with dotted section names.

Example::

    experiment = online
    seed = 42
    source.kind = generator
    source.family = sea
    source.n = 20000
    learner.algorithm = hoeffding_tree
    learner.params.grace_period = 200
    eval.report_every = 100
    output.path = runs/sea_ht.csv
    output.format = csv

Lines starting with ``#`` and blank lines are ignored; keys must be unique.
"""

from __future__ import annotations

from typing import Optional


class ConfigError(ValueError):
    pass


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    flat: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if key in flat:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        flat[key] = value
    return flat


def parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read(), origin=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def section(flat: dict[str, str], prefix: str) -> dict[str, str]:
    """Sub-keys under ``prefix.`` with the prefix stripped."""
    head = prefix + "."
    return {k[len(head):]: v for k, v in flat.items() if k.startswith(head)}


def get_str(flat: dict[str, str], key: str, default: Optional[str] = None,
            required: bool = False, choices: Optional[tuple[str, ...]] = None) -> Optional[str]:
    value = flat.get(key)
    if value is None or value == "":
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        value = default
    if value is not None and choices is not None and value not in choices:
        raise ConfigError(f"{key}: expected one of {choices}, got {value!r}")
    return value


def get_int(flat: dict[str, str], key: str, default: Optional[int] = None,
            required: bool = False) -> Optional[int]:
    value = flat.get(key)
    if value is None or value == "":
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def get_list(flat: dict[str, str], key: str, default: Optional[list[str]] = None) -> Optional[list[str]]:
    value = flat.get(key)
    if value is None or value == "":
        return default
    return [item.strip() for item in value.split(",") if item.strip()]


def auto_value(token: str):
    """Best-effort typing for grid values: int, then float, then bare string."""
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token
