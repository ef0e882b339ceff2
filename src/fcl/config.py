"""Configuration: flag > environment > config file > default.

The config file is plain key=value lines ('#' comments allowed); its
location comes from the --config flag, the FCL_CONFIG variable, or a
./fcl.conf in the working directory.  Recognized keys: fixtures (extra
fixture/cache directory) and network (on/off).
"""
from __future__ import annotations

import os
from pathlib import Path

from ._record import Record


class Config(Record):
    """The resolved settings.

    A frozen `Record`, not a dataclass (see `fcl._record`).
    """

    __slots__ = ("fixtures_path", "network")   # Path | None, bool
    _defaults = {"fixtures_path": None, "network": False}


def _parse_file(path: Path) -> dict:
    out = {}
    for i, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{i}: expected key=value")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _as_bool(v: str) -> bool:
    if v.lower() in ("on", "true", "1", "yes"):
        return True
    if v.lower() in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {v!r}")


def load_config(flags: dict | None = None, cwd: Path | None = None,
                env: dict | None = None) -> Config:
    """Resolve the configuration with flag > env > file > default."""
    flags = {k: v for k, v in (flags or {}).items() if v is not None}
    env = os.environ if env is None else env
    cwd = Path.cwd() if cwd is None else cwd

    file_vals = {}
    cfg_path = flags.get("config") or env.get("FCL_CONFIG")
    if cfg_path:
        file_vals = _parse_file(Path(cfg_path))
    elif (cwd / "fcl.conf").exists():
        file_vals = _parse_file(cwd / "fcl.conf")

    def pick(key, env_key, default):
        if key in flags:
            return flags[key]
        if env_key in env:
            return env[env_key]
        if key in file_vals:
            return file_vals[key]
        return default

    fixtures = pick("fixtures", "FCL_FIXTURES", None)
    network = pick("network", "FCL_NETWORK", False)
    if isinstance(network, str):
        network = _as_bool(network)
    return Config(
        fixtures_path=Path(fixtures) if fixtures else None,
        network=bool(network),
    )
