"""Persistence: sequence records, b-file text, a keep-longest cache, and
the layer checkpoints that let a longer DP pass resume.

Cache layout is up to two files per (d, r) key, in a directory taken from an
explicit argument, the SEQLAB_CACHE environment variable, or ``./.seqlab``:

- ``A_d<d>_r<r>.bfile``: the terms. An OEIS-compatible b-file (lines
  ``n a(n)`` from n = 0) with one leading '#' comment carrying the metadata.
- ``A_d<d>_r<r>.layer``: the DP's layer table at some n that the b-file
  covers, written by ``seq`` after its b-file. One header line
  ``# seqlab layer d=.. r=.. n=.. width=.. cap=..`` (``cap = d - 1`` fields
  of ``width`` bits per key, see ``tableaux.pack``), then one ``key count``
  line per shape, both in hex: linear-time to convert and free of the
  4300-digit limit on decimal ints. It costs one line per shape of that
  layer (166 for (3,1) at n = 330, 5584 for (5,2) at n = 44, 337,681 for
  (5,2) at n = 180) and one weighting of it to check when read.

Writes go through a temp file and an atomic rename, so concurrent runs can
share a cache directory without corrupting it. A store keeps the longer
record, and the checkpoint at the higher n among those the record covers.
"""

from __future__ import annotations

import logging
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .partitions import is_partition
from .tableaux import Checkpoint, field_width, unpack

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
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


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


def layer_path(cache_dir: str | os.PathLike, d: int, r: int) -> Path:
    return Path(cache_dir) / f"A_d{d}_r{r}.layer"


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
    _replace(path, lambda handle: handle.write(record_to_bfile(record)))
    return record


def _replace(path: Path, write: Callable[[TextIO], object]) -> None:
    """Write ``path`` through a temp file beside it and an atomic rename.
    The temp file is removed whatever interrupts the write, and an OSError
    becomes a CacheError naming ``path``."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException as exc:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise CacheError(f"cannot write cache file: {exc}", path=path) from exc
        raise


_LAYER_FIELDS = ("d", "r", "n", "width", "cap")
_LAYER_RE = re.compile(r"^#\s*seqlab\s+layer\s+(.*)$")


def _layer_header(line: str) -> dict[str, int]:
    """The header fields of a layer checkpoint; ValueError unless the line
    holds exactly d, r, n, width and cap, as decimal ints."""
    m = _LAYER_RE.match(line.strip())
    if m is None:
        raise ValueError(f"line 1: expected a '# seqlab layer' header, got {line[:80]!r}")
    fields = dict(token.partition("=")[::2] for token in m.group(1).split())
    if sorted(fields) != sorted(_LAYER_FIELDS):
        raise ValueError(f"line 1: header fields are {sorted(fields)}, expected {list(_LAYER_FIELDS)}")
    try:
        return {key: int(value) for key, value in fields.items()}
    except ValueError as exc:
        raise ValueError(f"line 1: non-integer header field in {line[:80]!r}") from exc


def layer_load(
    record: SequenceRecord, cache_dir: str | os.PathLike | None = None
) -> Checkpoint | None:
    """The layer checkpoint stored beside ``record``, or None when there is
    none. The file comes from outside the program, so before anything
    resumes from it, it must hold: a header with the record's d and r,
    ``cap = d - 1`` and the width ``field_width(r, n)`` that a pass to n
    uses; ``n < len(record.terms)``; keys that decode to partitions of
    ``r * n`` with at most ``cap`` rows, each once, with positive counts;
    and a weighted total equal to the cached a(n). Anything else raises
    CacheError naming the path."""
    path = layer_path(resolve_cache_dir(cache_dir), record.d, record.r)
    try:
        with open(path) as handle:
            return _parse_layer(handle, record)
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CacheError(f"cannot read layer checkpoint: {exc}", path=path) from exc
    except ValueError as exc:
        raise CacheError(f"corrupt layer checkpoint: {exc}", path=path) from exc


def _parse_layer(lines: Iterable[str], record: SequenceRecord) -> Checkpoint:
    lines = iter(lines)
    header = _layer_header(next(lines, ""))
    d, r, n, width, cap = (header[key] for key in _LAYER_FIELDS)
    if (d, r) != (record.d, record.r):
        raise ValueError(f"header says d={d} r={r}, expected d={record.d} r={record.r}")
    if cap != d - 1:
        raise ValueError(f"header says cap={cap}, expected {d - 1}")
    if not 0 <= n < len(record.terms):
        raise ValueError(f"layer {n} is not among the {len(record.terms)} cached terms")
    if width != field_width(r, n):
        raise ValueError(f"header says width={width}, expected {field_width(r, n)}")
    size = r * n
    table: dict[int, int] = {}
    for lineno, line in enumerate(lines, start=2):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'key count', got {line[:80]!r}")
        try:
            key, count = int(fields[0], 16), int(fields[1], 16)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-hex field in {line[:80]!r}") from exc
        shape = unpack(key, cap, width)
        if sum(shape) != size or not is_partition(shape):
            raise ValueError(
                f"line {lineno}: key {fields[0]} is no partition of {size} into at most {cap} rows"
            )
        if count <= 0:
            raise ValueError(f"line {lineno}: count {fields[1]} is not positive")
        if key in table:
            raise ValueError(f"line {lineno}: key {fields[0]} appears twice")
        table[key] = count
    layer = Checkpoint(n, width, table)
    if layer.count(d, r) != record.terms[n]:
        raise ValueError(f"layer {n} does not weigh to the cached a({n})")
    return layer


def layer_store(
    record: SequenceRecord, layer: Checkpoint, cache_dir: str | os.PathLike | None = None
) -> None:
    """Store ``layer`` as the checkpoint beside ``record``, the record on
    disk after its own store (see ``cache_store``), so a checkpoint is never
    ahead of its terms. The checkpoint on disk stays when it is at the same
    or a higher n that ``record`` still covers (keep-highest, as the b-file
    keeps the longest record); one the record does not cover, or that has
    no readable header, is replaced. The lines are written from the table's
    ``items()`` as they come, and the write is a temp file plus atomic
    rename."""
    d, r = record.d, record.r
    directory = resolve_cache_dir(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = layer_path(directory, d, r)
    try:
        with open(path) as handle:
            held = _layer_header(handle.readline())
    except (OSError, ValueError):
        held = None
    if (
        held is not None
        and (held["d"], held["r"]) == (d, r)
        and layer.n <= held["n"] < len(record.terms)
    ):
        log.warning(
            "keep-highest: %s already holds layer %d; not replacing with layer %d",
            path,
            held["n"],
            layer.n,
        )
        return

    def write(handle: TextIO) -> None:
        handle.write(
            f"# seqlab layer d={d} r={r} n={layer.n} width={layer.width} cap={d - 1}\n"
        )
        handle.writelines(f"{key:x} {count:x}\n" for key, count in layer.table.items())

    _replace(path, write)
