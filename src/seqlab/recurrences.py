"""Linear recurrences with integer polynomial coefficients.

Guessing builds an exact homogeneous linear system from sequence windows and
extracts integer nullspace vectors; a candidate counts only if it also
annihilates a held-out tail it never saw. There is no floating point
anywhere in this module, and exact integer arithmetic is the only judge, so
an accepted recurrence is a certificate for the supplied terms, not a fit.

One function, search_box, decides the search box: the holdout and each
order's top degree. Each order's top system is eliminated once modulo each
rung of a prime ladder it reaches, and _judge builds every rung: one prime,
lifted; the next prime only when the first is unlucky. With its columns
grouped by power of n, that system holds each smaller degree's system as a
prefix of its columns, and the elimination of a prefix is a prefix of the
elimination, so every pair is judged from its order's one elimination. Full
column rank modulo a prime proves the nullspace over Q is empty, and that
rejects most pairs. When the rank is not full, each free column's unique
rational solution of the pivot rows is lifted p-adically from that
elimination and checked exactly on every training window; if every lifted
vector passes, the kernel over Q is at least as large as the one mod p,
which is never larger, so the lift is the reduced-echelon basis over Q
itself. A vector that fails a window shows the prime is unlucky, and the
next prime of a ladder decides instead. A pair is left undecided only when
every prime of the ladder is unlucky for it.

The elimination holds each row as one int, a field of fixed width per
column (Kronecker substitution), so clearing a pivot with multiplier f is
one big-int multiply-add, row += (p - f) * tail, rather than a loop over
the row's entries. Adding p - f rather than subtracting f keeps every field
nonnegative, and each field is wide enough for the 2 bits(p) + bits(ncols)
bits its entry can reach (see _kernel_mod), so no borrow or carry ever
crosses from one column into the next.
"""

from __future__ import annotations

import logging
from itertools import compress, count
from math import gcd, isqrt
from operator import index, mul
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .storage import int_to_text, text_to_int

log = logging.getLogger(__name__)


class SingularLeadingCoefficientError(ArithmeticError):
    """The leading coefficient vanished at an index the extension needs."""


class NonIntegerStepError(ArithmeticError):
    """An extension step required a non-exact division (wrong recurrence)."""


class InsufficientTermsError(ValueError):
    """Too few terms for the requested operation."""


# --- integer polynomials, as coefficient tuples in ascending powers -------


def poly_trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    """Canonical form: trailing zeros stripped; the zero polynomial is ().
    A coefficient that is no int, such as a float or a str, raises
    TypeError rather than being truncated."""
    c = tuple(map(index, coeffs))
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def poly_degree(coeffs: Iterable[int]) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(poly_trim(coeffs)) - 1


def poly_eval(coeffs: Sequence[int], n: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * n + c
    return value


# --- the recurrence type ---------------------------------------------------


class PRecurrence(NamedTuple("PRecurrence", [("coeffs", tuple[tuple[int, ...], ...]), ("offset", int)])):
    """sum_i coeffs[i](n) * a(n+i) = 0 for all n >= offset.

    ``coeffs`` runs from the 0-shift polynomial up to the order-shift one.
    Construction (``__new__``; a named tuple, so immutable) canonicalizes:
    polynomials trimmed, overall integer content divided out, and the sign
    flipped so the leading coefficient of the highest-shift polynomial is
    positive. The highest-shift polynomial must be nonzero.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Iterable[int]], offset: int = 0) -> PRecurrence:
        polys = tuple(poly_trim(c) for c in coeffs)
        if len(polys) < 2:
            raise ValueError("a recurrence needs order at least 1")
        if not polys[-1]:
            raise ValueError("the highest-shift coefficient polynomial is zero")
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        content = gcd(*(c for poly in polys for c in poly))
        if polys[-1][-1] < 0:
            content = -content
        if content != 1:
            polys = tuple(tuple(c // content for c in poly) for poly in polys)
        return super().__new__(cls, polys, offset)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(poly_degree(c) for c in self.coeffs)


def recurrence_residual(rec: PRecurrence, terms: Sequence[int], n: int) -> int:
    """sum_i c_i(n) * terms[n+i]; zero iff the window at n satisfies rec."""
    return sum(poly_eval(c, n) * terms[n + i] for i, c in enumerate(rec.coeffs))


def verify(rec: PRecurrence, terms: Sequence[int]) -> bool:
    """Exact check of every applicable window of ``terms``.

    Vacuously true when fewer than order+1 terms are given. Windows where
    the leading coefficient vanishes are excluded (they cannot pin down the
    next term and are treated as singular points).
    """
    terms = list(terms)
    for n in range(rec.offset, len(terms) - rec.order):
        if poly_eval(rec.coeffs[-1], n) == 0:
            continue
        if recurrence_residual(rec, terms, n) != 0:
            return False
    return True


def extend(rec: PRecurrence, seed: Sequence[int], n_max: int) -> list[int]:
    """Terms 0..n_max: the seed followed by the values the recurrence forces.

    Each step solves the window for its last entry; the division by the
    leading coefficient must be exact over the integers and is checked.
    Raises SingularLeadingCoefficientError when the leading coefficient is
    zero at a needed index and NonIntegerStepError when a division fails
    (which signals a wrong recurrence, not a numeric problem). A seed term
    that is no int, such as a float or a str, raises TypeError.
    """
    terms = list(map(index, seed))
    if len(terms) < rec.order + rec.offset:
        raise ValueError(
            f"seed must cover indices 0..{rec.order + rec.offset - 1}; "
            f"got {len(terms)} terms"
        )
    if not verify(rec, terms):
        raise ValueError("seed is inconsistent with the recurrence")
    lead = rec.coeffs[-1]
    for m in range(len(terms), n_max + 1):
        n = m - rec.order
        pivot = poly_eval(lead, n)
        if pivot == 0:
            raise SingularLeadingCoefficientError(
                f"leading coefficient vanishes at n={n}; "
                f"cannot extend past index {m - 1}"
            )
        acc = sum(
            poly_eval(c, n) * terms[n + i] for i, c in enumerate(rec.coeffs[:-1])
        )
        value, remainder = divmod(-acc, pivot)
        if remainder:
            raise NonIntegerStepError(
                f"step to index {m} is not an integer; the recurrence does "
                f"not generate these terms"
            )
        terms.append(value)
    return terms[: n_max + 1]


# --- modular kernel --------------------------------------------------------

# Mersenne primes, each with about twice the bits of the one before. A minor
# of an integer matrix that is nonzero modulo a prime is nonzero over the
# integers, so the rank over Q is at least the rank mod p: full column rank
# modulo any of them proves the nullspace is empty. One prime, lifted,
# decides; the next only when the first is unlucky.
PRIME_LADDER = tuple(2**e - 1 for e in (61, 127, 521, 1279, 2203, 4423, 9689))
# a pivot of _kernel_mod: (lead, tail, row index, multipliers, inverse); an
# elimination is its pivots in insertion order and its free columns
Pivot = tuple[int, list[int], int, list[int], int]
Elimination = tuple[list[Pivot], list[int]]


def _kernel_mod(rows: Iterable[list[int]], ncols: int, p: int) -> Elimination | None:
    """Gaussian elimination of ``rows`` modulo ``p``: None as soon as the
    rows reach rank ``ncols``, reading no further; otherwise (pivots, free):
    the free columns, and one record per pivot in insertion order, (lead,
    tail, row index, multipliers, inverse), which _lift solves against.

    Each row is reduced against the pivots' unit-pivot rows, each stored as
    the tail from its lead column on and zero at the leads of the pivots
    inserted before it, so one pass in insertion order clears every pivot.
    The multipliers of that pass and the inverse that scales the row to a
    unit pivot are what make the pivot rows one LU factorization. A row's
    lead is its first nonzero free column, and the pass zeroes it at every
    pivot column, so each pivot's row is zero before its lead: the rank of
    the first c columns is the number of pivots among them.

    A row is held packed, as one int with a field of W bytes per column,
    little-endian, W = ceil((2 bits(p) + bits(ncols) + 1) / 8), and each
    pivot's unit tail likewise, shifted to its lead. Clearing a pivot with
    multiplier f is one multiply-add, row += (p - f) * tail, congruent to
    row - f * tail: no field goes negative, so no borrow crosses a field.
    Each field starts below p and each update adds less than p^2. A row
    meets at most ncols - 1 pivots, since the ncols-th ends the call, so a
    field stays below ncols * p^2 < 2^(8W): no carry crosses a field
    either, and each field is its entry, unreduced. The pass reduces only
    what it reads: each multiplier, the lead test and the new tail.
    """
    width = (2 * p.bit_length() + ncols.bit_length() + 1 + 7) // 8
    mask = (1 << 8 * width) - 1

    def pack(entries: Iterable[int]) -> int:
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in entries), "little")

    def entry(data: bytes, j: int) -> int:
        return int.from_bytes(data[j * width : (j + 1) * width], "little")

    pivots: list[Pivot] = []
    tails: list[tuple[int, int]] = []  # per pivot: its lead's shift, its packed tail
    free = list(range(ncols))
    for index, row in enumerate(rows):
        acc = pack(x % p for x in row)
        multipliers = []
        for shift, tail in tails:
            f = (acc >> shift & mask) % p
            multipliers.append(f)
            if f:
                acc += (p - f) * tail
        data = acc.to_bytes(width * ncols, "little")
        lead = next((j for j in free if entry(data, j) % p), None)
        if lead is None:
            continue
        free.remove(lead)
        inverse = pow(entry(data, lead), -1, p)
        tail = [entry(data, j) * inverse % p for j in range(lead, ncols)]
        pivots.append((lead, tail, index, multipliers, inverse))
        if len(pivots) == ncols:
            return None
        tails.append((8 * width * lead, pack(tail) << 8 * width * lead))
    return pivots, free


def _lift(rows: list[list[int]], elimination: Elimination, free: int, p: int) -> list[int]:
    """The primitive integer vector, zero at every free column but ``free``,
    that annihilates the pivot rows. They are nonsingular modulo p on the
    pivot columns, hence over Q, so the vector is unique and its
    denominators are prime to p. Each step of Dixon lifting solves the pivot
    rows modulo p through the elimination, in O(rank^2), and divides the
    residual exactly by p; rational reconstruction under one common
    denominator is tried after 1, 2, 4, ... steps and recovers the vector
    once the modulus passes twice the square of its largest entry or
    denominator. An early attempt mostly ends at the reconstruction bound
    (see _reconstruct), and one that gives a vector is checked exactly on
    every pivot row. An unlucky p lifts to that height before the next rung
    decides."""
    pivots, _ = elimination
    pivot_rows = [rows[index] for _, _, index, _, _ in pivots]
    residual = [-row[free] for row in pivot_rows]
    solution = [0] * len(rows[0])
    solution[free] = 1
    modulus = 1
    for steps in count(1):
        y: list[int] = []  # forward substitution through the multipliers
        for (_, _, _, multipliers, inverse), r in zip(pivots, residual):
            y.append((r - sum(map(mul, multipliers, y))) * inverse % p)
        x = [0] * len(solution)  # back substitution through the unit-pivot rows
        for (col, tail, _, _, _), v in zip(reversed(pivots), reversed(y)):
            x[col] = (v - sum(map(mul, tail, x[col:]))) % p
        for k, row in enumerate(pivot_rows):
            residual[k], remainder = divmod(residual[k] - sum(map(mul, row, x)), p)
            if remainder:
                raise ArithmeticError("a lifting step left a residual p does not divide")
        solution = [s + modulus * v for s, v in zip(solution, x)]
        modulus *= p
        if steps & (steps - 1) == 0:
            vec = _reconstruct(solution, modulus)
            if vec is not None and not any(sum(map(mul, row, vec)) for row in pivot_rows):
                return vec


def _reconstruct(vec: list[int], modulus: int) -> list[int] | None:
    """An integer vector w and one denominator den > 0 with w congruent to
    den * ``vec`` modulo ``modulus``, found entry by entry with den at most
    B = isqrt(modulus // 2), and returned as w over its content; None once
    den passes B.

    Each entry times the den so far is reduced by the half-extended
    Euclidean algorithm to r / t with |r| <= B and t > 0, and den and the
    entries before it are scaled by t; an entry that is already integral
    costs one or two steps. When ``vec`` is w / D modulo ``modulus`` for an
    integer vector w and a D prime to it, and the modulus exceeds
    2 max(max |w_i|, D)^2, each reduction finds its entry's own fraction,
    den stays a divisor of D, and the result is w over its content. An
    earlier attempt mostly ends at the bound; any other vector it gives is
    for the caller's exact check to turn away."""
    bound = isqrt(modulus // 2)
    den = 1
    out: list[int] = []
    for x in vec:
        r0, r1, t0, t1 = modulus, x * den % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        if t1 != 1:
            den *= t1
            if den > bound:
                return None
            out = [w * t1 for w in out]
        out.append(r1)
    content = gcd(*out)
    return [w // content for w in out]


# --- guessing --------------------------------------------------------------


# orders the default search box reaches; its degrees come from the terms
DEFAULT_MAX_ORDER = 4


def search_box(
    n_terms: int, max_order: int, max_degree: int | None = None, holdout: int | None = None
) -> tuple[int, dict[int, int]]:
    """The holdout and the top degree of each order that guess searches on
    ``n_terms`` terms: (holdout, tops), with tops[order] for each order up
    to ``max_order`` that the terms determine: ``max_degree`` or the
    largest degree whose training system is still determined (at least as
    many windows as unknowns), whichever is less.
    ``holdout`` defaults to a quarter of the terms, at least 4, and
    ``max_degree`` to order 1's determined degree. Raises ValueError on a
    bound below its least value and InsufficientTermsError when the terms
    determine not even order 1's degree 0."""
    if max_order < 1 or (max_degree is not None and max_degree < 0):
        raise ValueError("need max_order >= 1 and max_degree >= 0")
    if holdout is None:
        holdout = max(4, n_terms // 4)
    if holdout < 1:
        raise ValueError("holdout must be positive")
    if n_terms < holdout + 3:
        raise InsufficientTermsError(
            f"need at least {holdout + 3} terms (order 1, degree 0, "
            f"holdout {holdout}); got {n_terms}"
        )

    def determined(order: int) -> int:
        return (n_terms - holdout - order) // (order + 1) - 1

    if max_degree is None:
        max_degree = determined(1)
    orders = range(1, min(max_order, (n_terms - holdout - 1) // 2) + 1)
    return holdout, {order: min(max_degree, determined(order)) for order in orders}


def _rows(values: Sequence[int], order: int, degree: int, windows: int) -> Iterator[list[int]]:
    """Rows of the (order, degree) system: values[n+i] * n**j for window n,
    power j and shift i, power-major (every shift's n^0 column, then every
    shift's n^1 column, and so on), so each smaller degree's system is a
    prefix of the columns."""
    for n in range(windows):
        window = values[n : n + order + 1]
        yield [x * n**j for j in range(degree + 1) for x in window]


def _prefix(elimination: Elimination | None, ncols: int) -> Elimination | None:
    """What _kernel_mod gives on the first ``ncols`` columns of the rows
    ``elimination`` eliminated: None when they have full rank. Each pivot's
    row is zero before its lead, so a pivot led at or past ``ncols`` never
    touches the prefix: dropping it and its multipliers, and cutting the
    other pivots' tails at ``ncols``, leaves the prefix's elimination."""
    if elimination is None:
        return None
    pivots, free = elimination
    free = [j for j in free if j < ncols]
    if not free:
        return None
    kept = [lead < ncols for lead, *_ in pivots]
    return [
        (lead, tail[: ncols - lead], index, list(compress(multipliers, kept)), inverse)
        for lead, tail, index, multipliers, inverse in compress(pivots, kept)
    ], free


def guess(
    terms: Sequence[int],
    max_order: int = DEFAULT_MAX_ORDER,
    max_degree: int | None = None,
    holdout: int | None = None,
) -> PRecurrence | None:
    """Search for a recurrence annihilating ``terms``.

    The box comes from search_box: each determined order up to ``max_order``
    to its top degree, the most the terms determine or ``max_degree`` if less
    -- an underdetermined system always has solutions and proves nothing.
    Its (order, degree) pairs are tried by increasing system size
    (order+1)*(degree+1), ties broken toward lower order, and each is judged
    by _judge: an exact homogeneous system is built from every window
    avoiding the last ``holdout`` terms, and a nullspace vector is accepted
    only if it also annihilates every window touching the held-out terms.
    Every pair of an order is judged from a prefix of the order's top
    system, eliminated once modulo each rung of the prime ladder the order
    reaches: a pair of full column rank modulo a prime is rejected with no
    exact work, and otherwise the kernel lifted from the prefix gives the
    basis that exact elimination over Q would (see the module docstring).

    The whole search box is available when ``len(terms)`` is at least
    (max_order+1)*(max_degree+1) + holdout + max_order. ``holdout`` defaults
    to a quarter of the terms, at least 4, and ``max_degree`` to every
    degree whose order-1 system that holdout leaves determined. Returns None
    when nothing within the bounds fits (which says nothing about larger
    bounds); a term that is no int, such as a float, raises TypeError.
    Each tried pair is logged at INFO level with its unknowns, seconds
    (those of the eliminations it triggered included) and verdict:
    "rank-full mod p", "undecided", "zero leading polynomial", "held-out
    rejected" or "accepted".
    """
    terms = list(map(index, terms))
    holdout, tops = search_box(len(terms), max_order, max_degree, holdout)
    pairs = sorted(
        ((order, degree) for order, top in tops.items() for degree in range(top + 1)),
        key=lambda od: ((od[0] + 1) * (od[1] + 1), od[0]),
    )
    eliminations: dict[int, list[Elimination | None]] = {}  # by order, one per rung
    for order, degree in pairs:
        started = perf_counter()
        found, verdict = _judge(terms, order, degree, tops[order], holdout, eliminations.setdefault(order, []))
        log.info(
            "guess order %d degree %d: %d unknowns, %.4f s, %s",
            order,
            degree,
            (order + 1) * (degree + 1),
            perf_counter() - started,
            verdict,
        )
        if found is not None:
            return found
    return None


def _judge(
    terms: list[int], order: int, degree: int, top: int, holdout: int, eliminations: list[Elimination | None]
) -> tuple[PRecurrence | None, str]:
    """The first kernel vector of the (order, degree) system that is a
    recurrence annihilating the held-out tail, with the verdict of the
    furthest check any vector reached. The pair's system has one row per
    window of the terms: the training windows, then the held-out windows as
    the rows after them, which an accepted vector must annihilate too.
    ``eliminations`` holds the order's top system's elimination of the
    training rows modulo each rung of the ladder built so far, and the
    pair's is its prefix (see _prefix). A missing rung is built here, from
    the residues of the terms, when the pair first needs it: rung 0 for the
    order's first pair, and the next rung only when every rung before is
    unlucky. Rung 0 is logged at INFO level as the order's screen, with the
    least degree it leaves rank-deficient (``top`` plus one when none),
    ``top``, windows and the seconds of that elimination alone."""
    windows = len(terms) - holdout - order
    unknowns = (order + 1) * (degree + 1)
    rows = None
    for rung, p in enumerate(PRIME_LADDER):
        if rung == len(eliminations):
            started = perf_counter()
            residues = [t % p for t in terms]
            eliminations.append(_kernel_mod(_rows(residues, order, top, windows), (order + 1) * (top + 1), p))
            if rung == 0:
                least = top + 1 if eliminations[0] is None else min(eliminations[0][1]) // (order + 1)
                log.info(
                    "guess screen: order %d rank-full below degree %d (top degree %d, %d windows, %.4f s)",
                    order, least, top, windows, perf_counter() - started,
                )
        elimination = _prefix(eliminations[rung], unknowns)
        if elimination is None:
            return None, "rank-full mod p"
        if rows is None:
            rows = list(_rows(terms, order, degree, len(terms) - order))
        basis = []
        for free in elimination[1]:
            vec = _lift(rows, elimination, free, p)
            if any(sum(map(mul, row, vec)) for row in rows[:windows]):
                break  # p is unlucky: the rank over Q exceeds the rank mod p
            basis.append(vec)
        else:
            break
    else:
        return None, "undecided"
    verdict = "zero leading polynomial"
    for vec in basis:
        if not any(vec[order :: order + 1]):
            continue
        if not any(sum(map(mul, row, vec)) for row in rows[windows:]):
            return PRecurrence(tuple(vec[i :: order + 1] for i in range(order + 1))), "accepted"
        verdict = "held-out rejected"
    return None, verdict


# --- text format -----------------------------------------------------------


def format_recurrence(rec: PRecurrence) -> str:
    """Line-oriented exact text form.

    Line 1 is ``ORDER R DEGREE D OFFSET n0``; the next R+1 lines carry the
    D+1 integer coefficients of each polynomial in ascending powers,
    space-separated, from the 0-shift up. Round-trips bit-exactly through
    parse_recurrence.
    """
    degree = rec.degree
    lines = [f"ORDER {rec.order} DEGREE {degree} OFFSET {rec.offset}"]
    for poly in rec.coeffs:
        padded = list(poly) + [0] * (degree + 1 - len(poly))
        lines.append(" ".join(map(int_to_text, padded)))
    return "\n".join(lines) + "\n"


def parse_recurrence(text: str) -> PRecurrence:
    """Inverse of format_recurrence; raises ValueError on malformed input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty recurrence text")
    head = lines[0].split()
    if (
        len(head) != 6
        or head[0] != "ORDER"
        or head[2] != "DEGREE"
        or head[4] != "OFFSET"
    ):
        raise ValueError(f"bad recurrence header: {lines[0]!r}")
    order, degree, offset = (text_to_int(head[i]) for i in (1, 3, 5))
    if len(lines) != order + 2:
        raise ValueError(
            f"expected {order + 1} coefficient lines, got {len(lines) - 1}"
        )
    polys = []
    for ln in lines[1:]:
        coeffs = tuple(map(text_to_int, ln.split()))
        if len(coeffs) != degree + 1:
            raise ValueError(f"expected {degree + 1} coefficients: {ln!r}")
        polys.append(coeffs)
    return PRecurrence(tuple(polys), offset)
