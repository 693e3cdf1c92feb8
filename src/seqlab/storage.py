"""Persistence: sequence records, b-file text, a keep-longest cache, and
the layer checkpoints that let a longer DP pass resume.

Cache layout is up to two files per (d, r) key, in a directory taken from an
explicit argument, the SEQLAB_CACHE environment variable, or ``./.seqlab``:

- ``A_d<d>_r<r>.bfile``: the terms. An OEIS-compatible b-file (lines
  ``n a(n)`` from n = 0) with one leading '#' comment carrying the metadata.
- ``A_d<d>_r<r>.layer``: the DP's layer table at some n that the b-file
  covers, written by ``seq`` after its b-file. One header line
  ``# seqlab layer d=.. r=.. n=..``, then one line per slice of the table
  (see ``tableaux.LayerTable``) in ascending slice order: the slice's row
  count, its rows, then its run's counts from index 0, as lowercase hex
  fields separated by single spaces. Hex is linear-time to convert and
  free of the 4300-digit limit on decimal ints. It costs one line per slice
  of that layer (one for d = 3 at any n; 353 for the 5584 shapes of (5,2)
  at n = 44) and one weighting of it to check when read.

Writes go through a temp file and an atomic rename, so concurrent runs can
share a cache directory without corrupting it. A store keeps the longer
record, and the checkpoint at the higher n among those the record covers.
"""

from __future__ import annotations

import logging
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass, field
from operator import index
from pathlib import Path
from typing import Callable, Iterable, TextIO, TypeVar

from .partitions import is_partition
from .tableaux import Checkpoint, LayerTable

log = logging.getLogger(__name__)
_T = TypeVar("_T")

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
    the terms were obtained. A term that is no int, such as a float or a
    str, raises TypeError."""

    d: int
    r: int
    terms: tuple[int, ...]
    provenance: str = PROVENANCE_COMPUTED
    timestamp: str = field(default_factory=_utc_now)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(map(index, self.terms)))
        if self.d < 2 or self.r < 1:
            raise ValueError("need d >= 2 and r >= 1")
        if not self.terms:
            raise ValueError("a record must hold at least one term")
        if self.terms[0] != 1:
            raise ValueError("terms must start at index 0 with the value 1")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")


_DECIMAL_RE = re.compile(r"[+-]?[0-9]+")


def int_to_text(value: int) -> str:
    """``value`` as exact decimal text at any size. Under Python's limit on
    int-to-decimal conversion (4300 digits by default; none when it is 0 or
    the interpreter has none) ``str`` converts it: at most 3 bits per limit
    digit is fewer digits than the limit. A longer value is split by
    ``divmod`` with a power of ten into halves converted the same way, the
    low half zero-padded, so no interpreter-wide setting is touched and no
    conversion is tried that the limit would refuse."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or value.bit_length() <= 3 * limit:
        return str(value)
    if value < 0:
        return "-" + int_to_text(-value)
    k = value.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(value, 10**k)
    return int_to_text(high) + int_to_text(low).zfill(k)


def text_to_int(text: str) -> int:
    """The int written as ``text``, ASCII decimal digits with an optional
    sign, at any length (the inverse of ``int_to_text``); anything else
    raises ValueError. Past Python's limit on decimal-to-int conversion the
    digits are split in halves converted the same way and joined as
    ``high * 10**len(low) + low``."""
    if _DECIMAL_RE.fullmatch(text) is None:
        raise ValueError(f"not a decimal integer: {text[:80]!r}")
    return _digits_to_int(text)


def _digits_to_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    if text[0] in "+-":
        value = _digits_to_int(text[1:])
        return -value if text[0] == "-" else value
    k = len(text) // 2
    return _digits_to_int(text[:-k]) * 10**k + _digits_to_int(text[-k:])


def format_bfile(terms: Iterable[int], comments: Iterable[str] = ()) -> str:
    """B-file text: optional leading '#' lines, then ``n a(n)`` from n = 0,
    single space, newline-terminated, values as exact decimal strings."""
    lines = [f"# {c}" for c in comments]
    lines += [f"{n} {int_to_text(value)}" for n, value in enumerate(terms)]
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"#\s*seqlab\s+(.*)")


def _header_fields(line: str) -> dict[str, str] | None:
    """The ``key=value`` tokens of a ``# seqlab ...`` header line as a dict
    (a bare word maps to ''), or None when ``line`` is no such header."""
    m = _HEADER_RE.fullmatch(line.strip())
    return None if m is None else dict(token.partition("=")[::2] for token in m.group(1).split())


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
            meta.update(_header_fields(line) or {})
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'n a(n)', got {raw!r}")
        try:
            index, value = text_to_int(fields[0]), text_to_int(fields[1])
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


def _read(path: Path, what: str, parse: Callable[[TextIO], _T]) -> _T | None:
    """``parse`` of the open file at ``path``, or None when there is no
    file. An OSError becomes ``cannot read <what>`` and a ValueError
    ``corrupt <what>``, each a CacheError naming ``path``."""
    try:
        with open(path) as handle:
            return parse(handle)
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CacheError(f"cannot read {what}: {exc}", path=path) from exc
    except ValueError as exc:
        raise CacheError(f"corrupt {what}: {exc}", path=path) from exc


def cache_load(
    d: int, r: int, cache_dir: str | os.PathLike | None = None
) -> SequenceRecord | None:
    """Record for (d, r), or None when the key is absent. Corrupt files
    raise CacheError naming the path."""
    path = cache_path(resolve_cache_dir(cache_dir), d, r)

    def parse(handle: TextIO) -> SequenceRecord:
        terms, meta = parse_bfile(handle.read())
        for key, expected in (("d", d), ("r", r)):
            if key in meta and meta[key] != int_to_text(expected):
                message = f"cache file metadata says {key}={meta[key]}, expected {expected}"
                raise CacheError(message, path=path)
        provenance = meta.get("provenance", PROVENANCE_COMPUTED)
        timestamp = meta.get("timestamp", _utc_now())
        return SequenceRecord(d=d, r=r, terms=tuple(terms), provenance=provenance, timestamp=timestamp)

    return _read(path, "cache file", parse)


def cache_store(
    record: SequenceRecord,
    cache_dir: str | os.PathLike | None = None,
    layer: Checkpoint | None = None,
) -> SequenceRecord:
    """Store a record under its (d, r) key, then ``layer`` as the checkpoint
    beside the record on disk (see ``_layer_store``), so a checkpoint is
    never ahead of its terms; returns that record. A checkpoint of another
    key raises ValueError before anything is written.

    Terms are append-only facts: storing fewer terms than already cached is
    rejected with a keep-longest notice (the longer record wins), and a
    disagreeing overlap raises CacheError rather than overwriting either
    side. Each write is a temp file plus atomic rename; the temp file is
    removed whatever interrupts the write.
    """
    if layer is not None:
        layer.of(record.d, record.r)
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
            record = existing
    if record is not existing:
        _replace(path, lambda handle: handle.write(record_to_bfile(record)))
    if layer is not None:
        _layer_store(record, layer, directory)
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


_LAYER_FIELDS = ("d", "r", "n")
_HEX_LINE = r"[0-9a-f]+(?: [0-9a-f]+)*\n?"  # compiled at first use, not on import


def _layer_header(line: str) -> dict[str, int]:
    """The header fields of a layer checkpoint; ValueError unless the line
    is a ``# seqlab layer`` header holding exactly d, r and n, as decimal
    ints."""
    fields = _header_fields(line)
    if fields is None or fields.pop("layer", None) != "":
        raise ValueError(f"line 1: expected a '# seqlab layer' header, got {line[:80]!r}")
    if sorted(fields) != sorted(_LAYER_FIELDS):
        raise ValueError(f"line 1: header fields are {sorted(fields)}, expected {list(_LAYER_FIELDS)}")
    try:
        return {key: text_to_int(value) for key, value in fields.items()}
    except ValueError as exc:
        raise ValueError(f"line 1: non-integer header field in {line[:80]!r}") from exc


def layer_load(
    record: SequenceRecord, cache_dir: str | os.PathLike | None = None
) -> Checkpoint | None:
    """The layer checkpoint stored beside ``record``, or None when there is
    none. The file comes from outside the program, so before anything
    resumes from it, it must hold: a header with the record's d and r and
    ``n < len(record.terms)``; lines of lowercase hex fields, each a slice
    that is a partition and appears only once, then a nonempty run of
    positive counts; and a table that weighs to the cached a(n), a
    weighting that also rejects a slice too tall for d or a run past row 0
    (see ``tableaux._weighted_total``). Anything else raises CacheError
    naming the path."""
    path = layer_path(resolve_cache_dir(cache_dir), record.d, record.r)
    return _read(path, "layer checkpoint", lambda handle: _parse_layer(handle, record))


def _parse_layer(lines: Iterable[str], record: SequenceRecord) -> Checkpoint:
    lines = iter(lines)
    header = _layer_header(next(lines, ""))
    d, r, n = (header[key] for key in _LAYER_FIELDS)
    if (d, r) != (record.d, record.r):
        raise ValueError(f"header says d={d} r={r}, expected d={record.d} r={record.r}")
    if not 0 <= n < len(record.terms):
        raise ValueError(f"layer {n} is not among the {len(record.terms)} cached terms")
    table = LayerTable()
    for lineno, line in enumerate(lines, start=2):
        if re.fullmatch(_HEX_LINE, line) is None:
            raise ValueError(f"line {lineno}: non-hex field in {line[:80]!r}")
        rows, *fields = (int(field, 16) for field in line.split())
        part, run = tuple(fields[:rows]), fields[rows:]
        if not run:
            raise ValueError(f"line {lineno}: the run is empty in {line[:80]!r}")
        if not is_partition(part):
            raise ValueError(f"line {lineno}: the slice is no partition in {line[:80]!r}")
        if 0 in run:
            raise ValueError(f"line {lineno}: a count is not positive in {line[:80]!r}")
        if table.setdefault(part, run) is not run:
            raise ValueError(f"line {lineno}: its slice appears twice")
    layer = Checkpoint(d, r, n, table)
    if layer.count() != record.terms[n]:
        raise ValueError(f"layer {n} does not weigh to the cached a({n})")
    return layer


def _layer_store(record: SequenceRecord, layer: Checkpoint, directory: Path) -> None:
    """Store ``layer`` under its own key, ``record``'s, beside ``record``,
    the record on disk. The checkpoint on disk stays when it is at the same
    or a higher n that ``record`` still covers (keep-highest, as the b-file
    keeps the longest record); one the record does not cover, or that has
    no readable header, is replaced. The lines are the table's ``items()``
    in ascending slice order, so the bytes depend on the table alone, not
    on the order the engine built it in."""
    d, r = layer.d, layer.r
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
        handle.write(f"# seqlab layer d={d} r={r} n={layer.n}\n")
        for part, run in sorted(layer.table.items()):
            handle.write(" ".join(map("{:x}".format, (len(part), *part, *run))) + "\n")

    _replace(path, write)
