"""Offline sequence fixture store, matching, and an optional remote fetcher.

Fixtures are JSON documents {a_number, offset, terms[], align, note,
source}; terms are strings to dodge integer-width pitfalls in other
consumers.  `align` locates index n = 0 of the mathematical sequence
inside the stored terms (catalog entries sometimes carry an extra leading
term).  Matching knows three shapes: identity, aerated (zeros interleaved
at odd indices), and signed ((-1)^n).

The fetcher is off unless configuration enables networking; fetched
sequences are cached next to the user fixtures, and bundled fixtures are
never overwritten.
"""
from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .config import Config
from .errors import NetworkDisabled, NotFound, ParseError

_A_PATTERN = re.compile(r"^A\d{6}$")


@dataclass(frozen=True)
class Fixture:
    a_number: str
    offset: int
    terms: tuple
    align: int
    note: str
    source: str
    row_lengths: tuple | None = None

    def rows(self):
        """Reassemble triangle rows (fixtures carrying row_lengths only)."""
        if self.row_lengths is None:
            raise ValueError(f"{self.a_number} is not a triangle fixture")
        out, i = [], 0
        for ln in self.row_lengths:
            out.append(self.terms[i: i + ln])
            i += ln
        return out


def _fixture_from_json(d: dict, source=None) -> Fixture:
    return Fixture(
        a_number=d["a_number"],
        offset=int(d.get("offset", 0)),
        terms=tuple(int(t) for t in d["terms"]),
        align=int(d.get("align", 0)),
        note=d.get("note", ""),
        source=source or d.get("source", "bundled"),
        row_lengths=tuple(d["row_lengths"]) if d.get("row_lengths") else None,
    )


def load_bundled() -> dict:
    out = {}
    root = resources.files("fcl") / "fixtures"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            fx = _fixture_from_json(json.loads(entry.read_text()))
            out[fx.a_number] = fx
    return out


def load_fixtures(config: Config | None = None) -> dict:
    """Bundled fixtures plus any user/cache directory; bundled wins."""
    out = {}
    if config and config.fixtures_path and Path(config.fixtures_path).is_dir():
        for p in sorted(Path(config.fixtures_path).glob("A*.json")):
            try:
                fx = _fixture_from_json(json.loads(p.read_text()))
            except (json.JSONDecodeError, KeyError, ValueError):
                continue
            out[fx.a_number] = fx
    out.update(load_bundled())
    return out


def match(seq, min_overlap: int = 6, fixtures: dict | None = None):
    """Fixtures matching a sequence prefix, as (a_number, transform) pairs.

    Transforms: 'identity', 'aerated' (the sequence is the fixture with
    zeros interleaved at odd indices), 'signed' ((-1)^n times the fixture).
    Deterministic: sorted by (a_number, transform).
    """
    if min_overlap < 6:
        raise ValueError("need min_overlap >= 6")
    terms = list(seq)
    fixtures = load_bundled() if fixtures is None else fixtures
    hits = []
    for fx in fixtures.values():
        if fx.row_lengths is not None:
            continue
        data = fx.terms[fx.align:]
        if not data:
            continue
        n_id = min(len(terms), len(data))
        if n_id >= min_overlap and all(terms[i] == data[i] for i in range(n_id)):
            hits.append((fx.a_number, "identity"))
        # signed is only reported when it actually differs from identity
        if n_id >= min_overlap and any(data[i] != 0 for i in range(1, n_id, 2)) \
                and all(terms[i] == -data[i] if i % 2 else terms[i] == data[i]
                        for i in range(n_id)):
            hits.append((fx.a_number, "signed"))
        n_aer = min(len(terms), 2 * len(data))
        if n_aer >= min_overlap and all(
                terms[i] == 0 if i % 2 else terms[i] == data[i // 2]
                for i in range(n_aer)):
            hits.append((fx.a_number, "aerated"))
    return sorted(set(hits))


def _cache_dir(config: Config) -> Path:
    if config.fixtures_path:
        return Path(config.fixtures_path)
    return Path.home() / ".cache" / "fcl" / "fixtures"


def fetch(a_number: str, config: Config | None = None) -> Fixture:
    """Fixture by A-number: bundled, then cache, then (if enabled) remote.

    Remote fetch reads the b-file term list over HTTP and caches it;
    bundled fixtures are never overwritten.
    """
    if not _A_PATTERN.match(a_number or ""):
        raise ParseError(f"malformed sequence identifier {a_number!r}")
    config = config or Config()
    bundled = load_bundled()
    if a_number in bundled:
        return bundled[a_number]
    cache = _cache_dir(config) / f"{a_number}.json"
    if cache.exists():
        return _fixture_from_json(json.loads(cache.read_text()))
    if not config.network:
        raise NetworkDisabled(f"{a_number} is not bundled and networking is off")
    import urllib.error
    import urllib.request
    url = f"https://oeis.org/{a_number}/b{a_number[1:]}.txt"
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            raw = resp.read()
    except urllib.error.HTTPError as e:
        if e.code == 404:
            raise NotFound(f"{a_number} not found upstream") from e
        raise
    offset, terms = _parse_bfile(raw)
    fx = Fixture(a_number, offset, tuple(terms), 0,
                 "fetched b-file", f"fetched({int(time.time())})")
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps({
        "a_number": fx.a_number, "offset": fx.offset,
        "terms": [str(t) for t in fx.terms], "align": 0,
        "note": fx.note, "source": fx.source}, indent=1))
    return fx


def _parse_bfile(raw: bytes):
    """(offset, terms) from 'index value' lines; ParseError carries offsets."""
    terms = []
    offset = None
    pos = 0
    for line in raw.splitlines(keepends=True):
        stripped = line.strip()
        if stripped and not stripped.startswith(b"#"):
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError("expected 'index value'", position=pos)
            try:
                idx, val = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("non-integer b-file entry", position=pos)
            if offset is None:
                offset = idx
            terms.append(val)
        pos += len(line)
    if not terms:
        raise ParseError("empty b-file", position=0)
    return offset, terms
