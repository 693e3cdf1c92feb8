"""Independent brute-force oracles for the test suite.

Everything here is deliberately dumb: different algorithms from the library
code they check, so agreement means something. Three exceptions reuse library
pieces around a different core: ``direct_weighted_sequence`` is the
library's own layer tables weighted the plain way, as the reference for the
engine's faster weighting; ``exact_guess`` is the library's search with
its modular kernel replaced by fraction-free elimination over the integers,
on shift-major rows of its own (``window_rows``) where the library's are
power-major, so agreement also shows that the column layout does not change
answers; and ``list_kernel_mod`` is the library's modular elimination on
rows held as lists, cleared one entry at a time, the reference for its
packed rows. The ``fraction_*`` series functions are the Bessel determinant
over ordinary ``Fraction`` coefficients, the reference for the library's
integer exponential coefficients. ``richardson_extrapolate`` is the general
Lagrange evaluation at 1/x = 0 with exact ``Fraction`` weights, the
reference for the library's Neville ladder.
"""

from bisect import bisect_left
from fractions import Fraction
from math import comb, factorial, gcd
from operator import sub
from typing import Any, Sequence

from seqlab.partitions import syt_count
from seqlab.recurrences import PRecurrence, poly_trim, recurrence_residual
from seqlab.tableaux import Checkpoint


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def multiset_total(r: int, n: int) -> int:
    return factorial(r * n) // factorial(r) ** n


def brute_partitions(total: int, max_parts: int) -> set[tuple[int, ...]]:
    """All partitions of `total` with at most `max_parts` parts, grown part
    by part in ascending order (no shared code with the library)."""
    if total == 0:
        return {()}
    out: set[tuple[int, ...]] = set()

    def grow(prefix: list[int], remaining: int) -> None:
        if remaining == 0:
            out.add(tuple(sorted(prefix, reverse=True)))
            return
        if len(prefix) == max_parts:
            return
        cap = prefix[-1] if prefix else remaining
        for part in range(1, min(cap, remaining) + 1):
            prefix.append(part)
            grow(prefix, remaining - part)
            prefix.pop()

    grow([], total)
    return out


def conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The transposed diagram: column j's length is the number of rows
    longer than j."""
    return tuple(sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0))


def brute_syt_count(shape: tuple[int, ...]) -> int:
    """Standard fillings counted by placing 1..size at row ends."""
    size = sum(shape)
    fill = [0] * len(shape)  # cells filled so far in each row

    def place(done: int) -> int:
        if done == size:
            return 1
        total = 0
        for i, width in enumerate(shape):
            c = fill[i]
            if c < width and (i == 0 or fill[i - 1] > c):
                fill[i] += 1
                total += place(done + 1)
                fill[i] -= 1
        return total

    return place(0)


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Standard fillings by the hook-length formula: size! over the product
    of every cell's hook length (cells to its right, cells below, itself)."""
    size = sum(shape)
    hook_product = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for lower in shape[i + 1 :] if lower > j)
            hook_product *= row - j + below
    count, remainder = divmod(factorial(size), hook_product)
    assert not remainder, (shape, hook_product)
    return count


def brute_ssyt_count(shape: tuple[int, ...], r: int, n: int) -> int:
    """Column-strict fillings with each of 1..n used exactly r times,
    counted cell by cell in row-major order."""
    rows = [[0] * w for w in shape]
    remaining = [r] * (n + 1)
    cells = [(i, j) for i, w in enumerate(shape) for j in range(w)]

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = rows[i][j - 1] if j else 1
        total = 0
        for v in range(lo, n + 1):
            if not remaining[v]:
                continue
            if i and rows[i - 1][j] >= v:
                continue
            rows[i][j] = v
            remaining[v] -= 1
            total += place(idx + 1)
            remaining[v] += 1
            rows[i][j] = 0
        return total

    return place(0)


def lis_quadratic(word) -> int:
    """Longest strictly increasing subsequence by the O(len^2) DP."""
    word = list(word)
    if not word:
        return 0
    best = [1] * len(word)
    for i in range(1, len(word)):
        for j in range(i):
            if word[j] < word[i] and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best)


def cells_of(shape: tuple[int, ...]) -> set[tuple[int, int]]:
    return {(i, j) for i, w in enumerate(shape) for j in range(w)}


def longest_strict_increase(word) -> int:
    """Length of the longest strictly increasing subsequence, by the
    patience method: ``tails[k]`` is the smallest possible last element of
    an increasing subsequence of length k+1. 0 for the empty word."""
    tails: list[int] = []
    for x in word:
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
    return len(tails)


def enumerate_words(r: int, n: int):
    """Every word with exactly ``r`` copies of each of 1..n, in
    lexicographic order."""
    remaining = [r] * (n + 1)
    prefix: list[int] = []

    def rec(cells: int):
        if cells == 0:
            yield tuple(prefix)
            return
        for letter in range(1, n + 1):
            if remaining[letter]:
                remaining[letter] -= 1
                prefix.append(letter)
                yield from rec(cells - 1)
                prefix.pop()
                remaining[letter] += 1

    yield from rec(r * n)


def is_horizontal_strip(inner: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    """True iff ``outer/inner`` is a horizontal strip: ``inner`` fits inside
    ``outer`` and no two added cells share a column, i.e. ``outer[i+1] <=
    inner[i]`` for every row."""
    if len(inner) > len(outer):
        return False
    for i, part in enumerate(outer):
        below = inner[i] if i < len(inner) else 0
        if part < below:
            return False
        if i + 1 < len(outer) and outer[i + 1] > below:
            return False
    return True


def direct_weighted_sequence(d: int, r: int, n: int) -> list[int]:
    """Avoider counts 0..n weighted shape by shape: each shape of each
    decoded layer table, its standard-filling count taken from
    ``syt_count`` on the whole shape."""
    return [
        sum(syt_count(shape) * count for shape, count in table.items())
        for table in cold_tables(d, r, n)
    ]


def decoded(table, size: int) -> dict[tuple[int, ...], int]:
    """A layer table of shapes with ``size`` cells as ``{shape: count}``,
    in reverse-lexicographic shape order: each run's index i is the shape
    whose rows 2.. are the run's slice, row 1 is row 2 plus i, and row 0
    holds the other cells."""
    shapes = {}
    for part, run in table.items():
        row2 = part[0] if part else 0
        for i, count in enumerate(run):
            rows = (size - sum(part) - row2 - i, row2 + i, *part)
            shapes[tuple(row for row in rows if row)] = count
    return dict(sorted(shapes.items(), reverse=True))


def cold_tables(d: int, r: int, n: int) -> list[dict[tuple[int, ...], int]]:
    """Layer tables 0..n of one pass from layer 0, decoded to
    ``{shape: count}``."""
    layer = Checkpoint(d, r)
    tables = [layer.table, *(layer.table for _ in layer.advance(n))]
    return [decoded(table, r * i) for i, table in enumerate(tables)]


def exact_nullspace_basis(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Primitive integer basis of the right nullspace of an integer matrix,
    one vector per free column, in ascending free-column order.

    Forward elimination is fraction-free (cross-multiplication with exact
    division by the previous pivot); back-substitution runs over Fractions
    and each vector is scaled to coprime integers.
    """
    m = [row[:] for row in rows]
    pivot_cols: list[int] = []
    rank = 0
    prev_pivot = 1
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        top = m[rank]
        for row in m[rank + 1 :]:
            factor = row[col]
            for j in range(col, ncols):
                row[j] = (pivot * row[j] - factor * top[j]) // prev_pivot
        prev_pivot = pivot
        pivot_cols.append(col)
        rank += 1
        if rank == len(m):
            break

    basis: list[list[int]] = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for k in reversed(range(rank)):
            col = pivot_cols[k]
            row = m[k]
            s = sum((row[j] * x[j] for j in range(col + 1, ncols) if x[j]), Fraction(0))
            x[col] = -s / row[col]
        scale = 1
        for f in x:
            scale = scale * f.denominator // gcd(scale, f.denominator)
        vec = [int(f * scale) for f in x]
        content = gcd(*vec)
        basis.append([v // content for v in vec])
    return basis


def list_kernel_mod(rows, ncols: int, p: int):
    """``recurrences._kernel_mod`` with each row held as a list and cleared
    entry by entry, the reference for its packed rows: the same records,
    (pivots, free), or None once the rows reach rank ``ncols``."""
    pivots = []
    free = list(range(ncols))
    for index, row in enumerate(rows):
        row = [x % p for x in row]
        multipliers = []
        for col, tail, _, _, _ in pivots:
            f = row[col] % p
            multipliers.append(f)
            if f:
                row[col:] = map(sub, row[col:], map(f.__mul__, tail))
        lead = next((j for j in free if row[j] % p), None)
        if lead is None:
            continue
        free.remove(lead)
        inverse = pow(row[lead], -1, p)
        pivots.append((lead, [x * inverse % p for x in row[lead:]], index, multipliers, inverse))
        if len(pivots) == ncols:
            return None
    return pivots, free


def window_rows(terms, order: int, degree: int, windows: int) -> list[list[int]]:
    """Rows of the (order, degree) system: terms[n+i] * n**j for window n,
    shift i and power j, shift-major (shift 0's n^0 .. n^degree columns,
    then shift 1's, and so on)."""
    return [
        [terms[n + i] * n**j for i in range(order + 1) for j in range(degree + 1)]
        for n in range(windows)
    ]


def exact_guess(terms, max_order: int, max_degree: int, holdout: int | None = None):
    """``guess`` over an explicit box, with every nullspace taken by
    ``exact_nullspace_basis``: the same pair order, the same skipped
    underdetermined pairs and the same per-vector judging (a zero leading
    polynomial is skipped; a recurrence must annihilate every window that
    touches the held-out terms)."""
    terms = [int(t) for t in terms]
    if holdout is None:
        holdout = max(4, len(terms) // 4)
    train_len = len(terms) - holdout
    pairs = sorted(
        ((order, degree) for order in range(1, max_order + 1) for degree in range(max_degree + 1)),
        key=lambda od: ((od[0] + 1) * (od[1] + 1), od[0]),
    )
    for order, degree in pairs:
        unknowns = (order + 1) * (degree + 1)
        windows = train_len - order
        if windows < unknowns:
            continue
        rows = window_rows(terms, order, degree, windows)
        for vec in exact_nullspace_basis(rows, unknowns):
            polys = tuple(
                poly_trim(vec[i * (degree + 1) : (i + 1) * (degree + 1)]) for i in range(order + 1)
            )
            if not polys[-1]:
                continue
            rec = PRecurrence(polys)
            tail = range(max(0, train_len - order), len(terms) - order)
            if all(recurrence_residual(rec, terms, n) == 0 for n in tail):
                return rec
    return None


def fraction_series_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Product of two series of ordinary coefficients, truncated to their
    common length."""
    size = len(a)
    assert len(b) == size
    out = [Fraction(0)] * size
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(size - i):
            y = b[j]
            if y:
                out[i + j] += x * y
    return out


def fraction_bessel_I_2x(nu: int, trunc: int) -> list[Fraction]:
    """I_nu(2x) to degree ``trunc``: x^(2j+nu) has coefficient
    1/(j! * (j+nu)!)."""
    coeffs = [Fraction(0)] * (trunc + 1)
    j = 0
    while 2 * j + nu <= trunc:
        coeffs[2 * j + nu] = Fraction(1, factorial(j) * factorial(j + nu))
        j += 1
    return coeffs


def fraction_series_det(matrix) -> list[Fraction]:
    """Determinant of a square matrix of ordinary series, by expansion by
    minors memoized on column subsets."""
    k = len(matrix)
    size = len(matrix[0][0])
    memo = {0: [Fraction(1)] + [Fraction(0)] * (size - 1)}

    def expand(mask: int) -> list[Fraction]:
        if mask in memo:
            return memo[mask]
        row = k - bin(mask).count("1")
        acc = [Fraction(0)] * size
        sign = 1
        for col in range(k):
            bit = 1 << col
            if mask & bit:
                term = fraction_series_mul(matrix[row][col], expand(mask & ~bit))
                acc = [a + sign * t for a, t in zip(acc, term)]
                sign = -sign
        memo[mask] = acc
        return acc

    return expand((1 << k) - 1)


def richardson_extrapolate(samples: Sequence[tuple[int, Any]]) -> Any:
    """Limit at infinity of a function C + a1/x + ... + ak/x^k from samples
    at k+1 distinct positive points: exact on ``Fraction`` samples, rounded
    at the current ``decimal`` context on ``Decimal`` ones.

    This is Lagrange evaluation at 1/x = 0; with k+1 points it cancels the
    first k correction terms exactly.
    """
    total = 0
    for j, (xj, value) in enumerate(samples):
        weight = Fraction(1)
        for l, (xl, _) in enumerate(samples):
            if l == j:
                continue
            if xl == xj:
                raise ValueError("sample points must be distinct")
            weight *= Fraction(xj, xj - xl)
        total += value * weight.numerator / weight.denominator
    return total
