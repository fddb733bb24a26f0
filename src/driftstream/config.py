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

Lines starting with ``#`` and blank lines are ignored; keys must be unique.
There are no inline comments: everything after the ``=`` is the value, so a
``# note`` at the end of a line becomes part of it.
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


class Config:
    """A flat config read one key at a time. ``used`` holds each key read and
    each default applied, as a config file would hold it, so a key that
    nothing read is one ``reject_unread`` can name."""

    def __init__(self, flat: dict[str, str]):
        self.flat = flat
        self.used: dict[str, str] = {}

    def _raw(self, key: str, default, required: bool) -> Optional[str]:
        """The key's value, or None when it is absent or empty."""
        raw = self.flat.get(key)
        if raw:
            self.used[key] = raw
            return raw
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        if default is not None:
            self.used[key] = ",".join(default) if isinstance(default, list) else str(default)
        elif raw is not None:
            self.used[key] = raw
        return None

    def get_str(self, key: str, default: Optional[str] = None, required: bool = False,
                choices: Optional[tuple[str, ...]] = None) -> Optional[str]:
        value = self._raw(key, default, required) or default
        if value is not None and choices is not None and value not in choices:
            raise ConfigError(f"{key}: expected one of {choices}, got {value!r}")
        return value

    def get_int(self, key: str, default: Optional[int] = None, required: bool = False,
                low: Optional[int] = None, rule: Optional[str] = None) -> Optional[int]:
        """An integer; one below ``low`` is an error saying the key must
        ``rule`` (by default, ``be >= low``)."""
        raw = self._raw(key, default, required)
        try:
            value = default if raw is None else int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
        if value is not None and low is not None and value < low:
            raise ConfigError(f"{key} must {rule or f'be >= {low}'}")
        return value

    def get_list(self, key: str, default: Optional[list[str]] = None) -> Optional[list[str]]:
        """The comma-separated items; a key given with no value is an empty
        list, not the default."""
        if self.flat.get(key) == "":
            self.used[key] = ""
            return []
        raw = self._raw(key, default, False)
        if raw is None:
            return default
        return [item.strip() for item in raw.split(",") if item.strip()]

    def section(self, prefix: str) -> dict[str, str]:
        """Sub-keys under ``prefix.`` with the prefix stripped; reads them all."""
        head = prefix + "."
        found = {k: v for k, v in self.flat.items() if k.startswith(head)}
        self.used.update(found)
        return {k[len(head):]: v for k, v in found.items()}

    def reject_unread(self, run: str) -> None:
        unread = [key for key in self.flat if key not in self.used]
        if unread:
            raise ConfigError(f"{', '.join(unread)}: not read by this {run} run")


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
