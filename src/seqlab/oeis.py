"""OEIS lookups: search a local 'stripped'-format dump or the remote API.

Remote requests carry a descriptive agent string and are spaced at least two
seconds apart. The endpoint is the SEQLAB_OEIS_URL environment variable when
it is set (the tests point it at a local fixture server), else the public
search page.

Only a remote lookup imports ``urllib.request``, ``http.client``, ``ssl`` and
``json``. Every ``seqlab`` command imports this module and most never touch
the network; loading the network stack up front would double their start-up
time and make up a quarter of their peak memory.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

ENV_OEIS_URL = "SEQLAB_OEIS_URL"
DEFAULT_OEIS_URL = "https://oeis.org/search"
USER_AGENT = "seqlab/0.1 (exact integer-sequence workbench)"
MIN_REQUEST_INTERVAL = 2.0
TIMEOUT = 15.0

_ID_RE = re.compile(r"^A\d{6}$")
_last_request = 0.0


class OeisError(Exception):
    """Base class for lookup failures."""


class NetworkUnavailableError(OeisError):
    """The remote endpoint could not be reached."""


class MalformedResponseError(OeisError):
    """The endpoint answered with something unparseable; the raw payload is
    preserved on the ``payload`` attribute."""

    def __init__(self, message: str, payload: str = ""):
        super().__init__(message)
        self.payload = payload


@dataclass(frozen=True)
class OeisMatch:
    """One matching sequence. ``offset`` is where the query starts as a
    contiguous run of the listed terms, or -1 when the match came from
    elsewhere (e.g. a remote name match)."""

    identifier: str
    name: str
    offset: int

    def __post_init__(self) -> None:
        if not _ID_RE.match(self.identifier):
            raise ValueError(f"bad OEIS identifier {self.identifier!r}")


def _find_run(haystack: list[int], needle: list[int]) -> int:
    k = len(needle)
    for start in range(len(haystack) - k + 1):
        if haystack[start : start + k] == needle:
            return start
    return -1


def _search_local(query: list[int], dump_path: str | os.PathLike) -> list[OeisMatch]:
    # stripped-format lines look like ``A000108 ,1,1,2,5,...,`` and carry no names
    matches: list[OeisMatch] = []
    with Path(dump_path).open() as handle:
        for line in handle:
            if not line.startswith("A"):
                continue
            ident, _, data = line.partition(" ")
            values = [int(tok) for tok in data.strip().split(",") if tok]
            run = _find_run(values, query)
            if run >= 0:
                matches.append(OeisMatch(identifier=ident, name="", offset=run))
    return matches


def _respect_rate_limit() -> None:
    global _last_request
    wait = MIN_REQUEST_INTERVAL - (time.monotonic() - _last_request)
    if wait > 0:
        time.sleep(wait)
    _last_request = time.monotonic()


def _search_remote(query: list[int]) -> list[OeisMatch]:
    # imported here, not at the top: see the module docstring
    import json
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.parse import urlencode
    from urllib.request import Request, urlopen

    url = os.environ.get(ENV_OEIS_URL) or DEFAULT_OEIS_URL
    _respect_rate_limit()
    params = urlencode({"q": ",".join(str(t) for t in query), "fmt": "json"})
    try:
        request = Request(f"{url}?{params}", headers={"User-Agent": USER_AGENT})
        try:
            with urlopen(request, timeout=TIMEOUT) as response:
                status = response.status
                raw = response.read().decode("utf-8", errors="replace")
        except HTTPError as exc:
            # the error body is read off the same connection, so it can break too
            status = exc.code
            raw = exc.read().decode("utf-8", errors="replace")
    except (OSError, HTTPException, ValueError) as exc:
        # refused or unresolvable host, timeout, broken connection, bad URL
        raise NetworkUnavailableError(f"cannot reach {url}: {exc}") from exc
    if status != 200:
        raise MalformedResponseError(f"endpoint returned HTTP {status}", payload=raw)
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise MalformedResponseError("response is not JSON", payload=raw) from exc
    return _parse_search_results(body, query, raw=raw)


def _parse_search_results(body, query: list[int], raw: str = "") -> list[OeisMatch]:
    if isinstance(body, dict):
        results = body.get("results") or []
    elif isinstance(body, list):
        results = body
    else:
        raise MalformedResponseError("unexpected response shape", payload=raw)
    matches: list[OeisMatch] = []
    for entry in results:
        try:
            number = int(entry["number"])
            name = str(entry.get("name", ""))
            data = [int(tok) for tok in str(entry.get("data", "")).split(",") if tok]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedResponseError(
                f"unexpected result entry: {exc}", payload=raw
            ) from exc
        matches.append(
            OeisMatch(
                identifier=f"A{number:06d}",
                name=name,
                offset=_find_run(data, query),
            )
        )
    return matches


def oeis_lookup(
    terms: Sequence[int],
    mode: str = "remote",
    dump_path: str | os.PathLike | None = None,
) -> list[OeisMatch]:
    """Sequences holding ``terms`` as a contiguous run: from the
    'stripped'-format dump at ``dump_path`` in mode 'local' (no names; raises
    FileNotFoundError when the dump is absent), or from the search API in
    mode 'remote'."""
    query = [int(t) for t in terms]
    if not query:
        raise ValueError("empty query")
    if mode == "local":
        if dump_path is None:
            raise ValueError("local mode needs a dump path")
        return _search_local(query, dump_path)
    if mode == "remote":
        return _search_remote(query)
    raise ValueError(f"unknown mode {mode!r} (use 'local' or 'remote')")
