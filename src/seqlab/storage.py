"""Persistence: sequence records, b-file text, and a keep-longest cache.

Cache layout is one file per (d, r) key, named ``A_d<d>_r<r>.bfile``, in a
directory taken from an explicit argument, the SEQLAB_CACHE environment
variable, or ``./.seqlab``. Files are OEIS-compatible b-files (lines
``n a(n)`` from n = 0) with one leading '#' comment carrying the metadata.
Writes go through a temp file and an atomic rename, so concurrent runs can
share a cache directory without corrupting it.
"""

from __future__ import annotations

import logging
import os
import re
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

log = logging.getLogger(__name__)

PROVENANCE_COMPUTED = "computed"
PROVENANCE_EXTENDED = "extended-by-recurrence"
_PROVENANCES = (PROVENANCE_COMPUTED, PROVENANCE_EXTENDED)

ENV_CACHE_DIR = "SEQLAB_CACHE"
DEFAULT_CACHE_DIR = ".seqlab"


class CacheError(Exception):
    """A cache file could not be read, parsed, or safely replaced."""

    def __init__(self, message: str, path=None):
        super().__init__(f"{message} [{path}]" if path is not None else message)
        self.path = path


def _utc_now() -> str:
    return datetime.now(timezone.utc).replace(microsecond=0).isoformat()


@dataclass(frozen=True)
class SequenceRecord:
    """One persisted sequence: the (d, r) key, terms from index 0, and how
    the terms were obtained."""

    d: int
    r: int
    terms: tuple[int, ...]
    provenance: str = PROVENANCE_COMPUTED
    timestamp: str = field(default_factory=_utc_now)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(int(t) for t in self.terms))
        if self.d < 2 or self.r < 1:
            raise ValueError("need d >= 2 and r >= 1")
        if not self.terms:
            raise ValueError("a record must hold at least one term")
        if self.terms[0] != 1:
            raise ValueError("terms must start at index 0 with the value 1")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")


def format_bfile(terms: Iterable[int], comments: Iterable[str] = ()) -> str:
    """B-file text: optional leading '#' lines, then ``n a(n)`` from n = 0,
    single space, newline-terminated, values as exact decimal strings."""
    lines = [f"# {c}" for c in comments]
    lines += [f"{n} {value}" for n, value in enumerate(terms)]
    return "\n".join(lines) + "\n"


_META_RE = re.compile(r"^#\s*seqlab\s+(.*)$")


def record_to_bfile(record: SequenceRecord) -> str:
    meta = (
        f"seqlab d={record.d} r={record.r} provenance={record.provenance} "
        f"timestamp={record.timestamp}"
    )
    return format_bfile(record.terms, comments=(meta,))


def parse_bfile(text: str) -> tuple[list[int], dict[str, str]]:
    """Parse b-file text into (terms, metadata).

    Comments are allowed only before the data; indices must run 0, 1, 2, ...
    Anything else raises ValueError -- a damaged file is reported, never
    silently truncated.
    """
    terms: list[int] = []
    meta: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if terms:
                raise ValueError(f"line {lineno}: comment after data")
            m = _META_RE.match(line)
            if m:
                for token in m.group(1).split():
                    key, _, value = token.partition("=")
                    meta[key] = value
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'n a(n)', got {raw!r}")
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from exc
        if index != len(terms):
            raise ValueError(
                f"line {lineno}: index {index} out of order (expected {len(terms)})"
            )
        terms.append(value)
    if not terms:
        raise ValueError("no data lines")
    return terms, meta


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else Path(DEFAULT_CACHE_DIR)


def cache_path(cache_dir: str | os.PathLike, d: int, r: int) -> Path:
    return Path(cache_dir) / f"A_d{d}_r{r}.bfile"


def cache_load(
    d: int, r: int, cache_dir: str | os.PathLike | None = None
) -> SequenceRecord | None:
    """Record for (d, r), or None when the key is absent. Corrupt files
    raise CacheError naming the path."""
    path = cache_path(resolve_cache_dir(cache_dir), d, r)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CacheError(f"cannot read cache file: {exc}", path=path) from exc
    try:
        terms, meta = parse_bfile(text)
    except ValueError as exc:
        raise CacheError(f"corrupt cache file: {exc}", path=path) from exc
    for key, expected in (("d", d), ("r", r)):
        if key in meta and meta[key] != str(expected):
            raise CacheError(
                f"cache file metadata says {key}={meta[key]}, expected {expected}",
                path=path,
            )
    try:
        return SequenceRecord(
            d=d,
            r=r,
            terms=tuple(terms),
            provenance=meta.get("provenance", PROVENANCE_COMPUTED),
            timestamp=meta.get("timestamp", _utc_now()),
        )
    except ValueError as exc:
        raise CacheError(f"corrupt cache file: {exc}", path=path) from exc


def cache_store(
    record: SequenceRecord, cache_dir: str | os.PathLike | None = None
) -> SequenceRecord:
    """Store a record under its (d, r) key; returns whatever is on disk
    afterwards.

    Terms are append-only facts: storing fewer terms than already cached is
    rejected with a keep-longest notice (the longer record wins), and a
    disagreeing overlap raises CacheError rather than overwriting either
    side. The write itself is a temp file plus atomic rename; the temp file
    is removed whatever interrupts the write.
    """
    directory = resolve_cache_dir(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = cache_path(directory, record.d, record.r)
    existing = cache_load(record.d, record.r, directory)
    if existing is not None:
        overlap = min(len(existing.terms), len(record.terms))
        if existing.terms[:overlap] != record.terms[:overlap]:
            raise CacheError(
                "stored terms disagree with the new record on their overlap",
                path=path,
            )
        if len(existing.terms) > len(record.terms):
            log.warning(
                "keep-longest: %s already holds %d terms; not replacing with %d",
                path,
                len(existing.terms),
                len(record.terms),
            )
            return existing
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(record_to_bfile(record))
        os.replace(tmp_name, path)
    except BaseException as exc:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise CacheError(f"cannot write cache file: {exc}", path=path) from exc
        raise
    return record
