"""The benchmark's workloads and the checks on every command's output.

A workload is a closed loop of ``seqlab`` commands: one client, each command
starting when the previous one has finished, all against one fresh cache
directory. ``{tmp}`` in an argument stands for that directory.

The seed picks a shift ``k`` in range(4) and moves the ``--nmax`` of the
commands whose cost barely depends on it, so every seed asks for different
terms while the work stays within a few percent of the base size. A DP whose
cost grows like a high power of ``nmax`` keeps its base size: on (5, 2) one
more layer costs about 10% more. Every shifted request stays inside the
reference data in ``data/``.

The checks here share no code with seqlab: the Catalan numbers come from
their closed form, other terms from the reference files, and recurrences are
checked by evaluating their residuals directly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parent / "data"


class OutputError(Exception):
    """A command's exit code or output is wrong."""


@dataclass(frozen=True)
class Command:
    """One CLI call: the metric its wall time feeds, its argv, the highest
    index it asks for, and the check on (exit code, stdout, tmp dir)."""

    metric: str
    argv: tuple[str, ...]
    nmax: int
    check: Callable[[int, str, Path], None]

    def args(self, tmp: Path) -> list[str]:
        return [a.replace("{tmp}", str(tmp)) for a in self.argv]


# --- reference data ---------------------------------------------------------


def read_terms(name: str) -> list[int]:
    terms = []
    for line in (DATA / name).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        n, value = line.split()
        if int(n) != len(terms):
            raise ValueError(f"{name}: index {n} out of order")
        terms.append(int(value))
    return terms


Recurrence = tuple[tuple[int, ...], ...]  # shift-0 .. shift-order polynomials


def parse_recurrence(text: str) -> tuple[Recurrence, int]:
    """(coefficient polynomials, offset) from the ``ORDER r DEGREE d OFFSET
    n0`` text format that ``guess`` writes."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = lines[0]
    if len(head) != 6 or head[0::2] != ["ORDER", "DEGREE", "OFFSET"]:
        raise OutputError(f"bad recurrence header {' '.join(head)!r}")
    order, degree, offset = int(head[1]), int(head[3]), int(head[5])
    polys = tuple(tuple(int(c) for c in ln) for ln in lines[1:])
    if len(polys) != order + 1 or any(len(p) != degree + 1 for p in polys):
        raise OutputError("recurrence body does not match its header")
    return polys, offset


def _poly(coeffs, n: int) -> int:
    return sum(c * n**i for i, c in enumerate(coeffs))


def residuals_vanish(rec: Recurrence, offset: int, terms, start: int = 0) -> bool:
    """True iff every window from index max(start, offset) on that has a
    nonzero leading coefficient sums to zero."""
    order = len(rec) - 1
    for n in range(max(start, offset), len(terms) - order):
        if _poly(rec[-1], n) == 0:
            continue
        if sum(_poly(p, n) * terms[n + i] for i, p in enumerate(rec)) != 0:
            return False
    return True


# --- output parsing -----------------------------------------------------------


def _expect_rc(rc: int, want: int, out: str) -> None:
    if rc != want:
        tail = out.strip().splitlines()[-1:] or ["(no output)"]
        raise OutputError(f"exit code {rc}, expected {want}; last line: {tail[0][:200]}")


def _terms(out: str) -> list[int]:
    return [int(line) for line in out.split()]


def _same_terms(got: list[int], want: list[int]) -> None:
    if len(got) != len(want):
        raise OutputError(f"{len(got)} terms printed, expected {len(want)}")
    for n, (a, b) in enumerate(zip(got, want)):
        if a != b:
            raise OutputError(f"term {n} is wrong")


def _field(out: str, pattern: str) -> str:
    m = re.search(pattern, out, re.MULTILINE)
    if m is None:
        raise OutputError(f"no line matching {pattern!r}")
    return m.group(1)


def _estimates(out: str) -> list[float]:
    return [float(v) for v in _field(out, r"^estimates by level: (.*)$").split(",")]


# --- checks -------------------------------------------------------------------


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def check_seq(reference: Callable[[int], list[int]], nmax: int):
    def check(rc, out, tmp):
        _expect_rc(rc, 0, out)
        _same_terms(_terms(out), reference(nmax))

    return check


def check_asym(nmax: int, mu: int, alpha: str, constant: float, rel: float, mu_rel: float):
    """Growth report: the conjectured parameters, the index range used, the
    fitted base within ``mu_rel`` of mu, and the last ladder estimate within
    ``rel`` of ``constant``."""

    def check(rc, out, tmp):
        _expect_rc(rc, 0, out)
        if _field(out, r"^terms used: 0\.\.(\d+)$") != str(nmax):
            raise OutputError("wrong index range in the growth report")
        if _field(out, r"^conjectured growth base mu = (\S+)$") != str(mu):
            raise OutputError("wrong conjectured growth base")
        if _field(out, r"^conjectured decay exponent alpha = (\S+)$") != alpha:
            raise OutputError("wrong conjectured decay exponent")
        base = float(_field(out, r"^empirical base\s+~ (\S+)$"))
        if abs(base - mu) > mu_rel * mu:
            raise OutputError(f"fitted growth base {base} is not within {mu_rel:.0%} of {mu}")
        last = _estimates(out)[-1]
        if not math.isfinite(last) or abs(last - constant) > rel * constant:
            raise OutputError(f"constant estimate {last} is not within {rel:.0e} of {constant}")

    return check


def check_gessel(nmax: int):
    def check(rc, out, tmp):
        _expect_rc(rc, 0, out)
        if out.strip().splitlines()[-1] != f"PASS (all {nmax + 1} indices agree)":
            raise OutputError("determinant identity did not PASS")

    return check


def check_check(ref: list[int], nmax: int):
    def check(rc, out, tmp):
        _expect_rc(rc, 0, out)
        lines = out.strip().splitlines()
        for n in range(nmax + 1):
            want = f"n={n}: formula={ref[n]} oracle={ref[n]} ok"
            if lines[n] != want:
                raise OutputError(f"line for n={n} is {lines[n][:200]!r}")
        if not lines[nmax + 1].startswith("PASS"):
            raise OutputError("check did not PASS")

    return check


def check_guess_none_or_valid(ref: list[int], nmax: int):
    """Either "no recurrence", or one that holds on reference terms the
    guess never saw."""

    def check(rc, out, tmp):
        if rc == 1 and out.startswith("no recurrence found"):
            return
        _expect_rc(rc, 0, out)
        rec, offset = parse_recurrence(out)
        if len(ref) <= nmax + len(rec):
            raise OutputError("no unseen reference terms to validate against")
        if not residuals_vanish(rec, offset, ref):
            raise OutputError("guessed recurrence fails on the reference terms")

    return check


def check_guess_file(ref: list[int], name: str):
    def check(rc, out, tmp):
        _expect_rc(rc, 0, out)
        rec, offset = parse_recurrence((tmp / name).read_text())
        if not residuals_vanish(rec, offset, ref):
            raise OutputError("guessed recurrence fails on the reference terms")

    return check


def check_extension(ref: list[int], rec: Recurrence, offset: int, nmax: int):
    """Terms 0..nmax whose prefix equals the reference terms and whose every
    later window satisfies the reference recurrence with a nonzero leading
    coefficient; together these fix every printed term."""

    def check(rc, out, tmp):
        _expect_rc(rc, 0, out)
        got = _terms(out)
        if len(got) != nmax + 1:
            raise OutputError(f"{len(got)} terms printed, expected {nmax + 1}")
        _same_terms(got[: len(ref)], ref)
        order = len(rec) - 1
        for n in range(len(ref) - order, nmax + 1 - order):
            if _poly(rec[-1], n) == 0:
                raise OutputError(f"reference recurrence is singular at n={n}")
        if not residuals_vanish(rec, offset, got, start=len(ref) - order):
            raise OutputError("extension does not satisfy the reference recurrence")

    return check


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list[Command]]


def _cmd(metric, text, nmax, check):
    return Command(metric, tuple(text.split()), nmax, check)


CACHE = "--cache-dir {tmp}"


SHIFTS = 4


def perm_r1(k: int) -> list[Command]:
    lo, hi, g = 330 + k, 370 + k, 30
    terms = lambda n: [catalan(i) for i in range(n + 1)]  # noqa: E731
    return [
        _cmd("seq_s", f"seq --d 3 --r 1 --nmax {lo} {CACHE}", lo, check_seq(terms, lo)),
        _cmd("seq_more_s", f"seq --d 3 --r 1 --nmax {hi} {CACHE}", hi, check_seq(terms, hi)),
        _cmd(
            "asym_s", f"asym --d 3 --r 1 --nmax {hi} {CACHE}", hi,
            check_asym(hi, 4, "3/2", 1 / math.sqrt(math.pi), rel=0.02, mu_rel=0.01),
        ),
        _cmd("gessel_s", f"gessel --k 5 --nmax {g}", g, check_gessel(g)),
    ]


def hard_r2(k: int) -> list[Command]:
    ref = read_terms("d5_r2.txt")
    n, g = 44, 44 - k
    return [
        _cmd("seq_s", f"seq --d 5 --r 2 --nmax {n} {CACHE}", n, check_seq(lambda m: ref[: m + 1], n)),
        _cmd("check_s", "check --d 5 --r 2 --nmax 5", 5, check_check(ref, 5)),
        _cmd(
            "guess_s", f"guess --d 5 --r 2 --nmax {g} --max-order 5 --max-degree 10 {CACHE}", g,
            check_guess_none_or_valid(ref, g),
        ),
    ]


def discover_r2(k: int) -> list[Command]:
    ref = read_terms("d4_r2.txt")
    rec, offset = parse_recurrence((DATA / "d4_r2.rec").read_text())
    constant = json.loads((DATA / "constants.json").read_text())["d4_r2_constant"]
    n, g, far = 80, 80 - k, 600 + k
    rec_file = "--rec {tmp}/d4_r2.rec"
    return [
        _cmd("seq_s", f"seq --d 4 --r 2 --nmax {n} {CACHE}", n, check_seq(lambda m: ref[: m + 1], n)),
        _cmd(
            "guess_s",
            f"guess --d 4 --r 2 --nmax {g} --max-order 4 --max-degree 8 --out {{tmp}}/d4_r2.rec {CACHE}",
            g, check_guess_file(ref, "d4_r2.rec"),
        ),
        _cmd(
            "extend_s", f"extend --d 4 --r 2 --nmax {far} {rec_file} --store {CACHE}", far,
            check_extension(ref, rec, offset, far),
        ),
        _cmd(
            "asym_s", f"asym --d 4 --r 2 --nmax {far} {rec_file} {CACHE}", far,
            check_asym(far, 54, "4", constant, rel=1e-4, mu_rel=0.001),
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "perm-r1",
            "permutations (3,1): seq is weighting-bound, seq_more recomputes a cached prefix, "
            "asym is cheap growth, gessel runs per-n counts and the determinant",
            perm_r1,
        ),
        Workload(
            "hard-r2",
            "the paper's hard case (5,2): seq is mostly transfer, check runs the oracle, "
            "guess rejects every pair",
            hard_r2,
        ),
        Workload(
            "discover-r2",
            "discovery on (4,2): guess succeeds at order 4, extend writes the cache, "
            "asym reads it back and is growth-bound on 1000-digit terms",
            discover_r2,
        ),
    )
}

COMMAND_METRICS = ("seq_s", "seq_more_s", "check_s", "guess_s", "extend_s", "asym_s", "gessel_s")
