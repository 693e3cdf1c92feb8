"""Independent brute-force oracles for the test suite.

Everything here is deliberately dumb: different algorithms from the library
code they check, so agreement means something. The one exception,
``direct_weighted_sequence``, is the library's own layer tables weighted the
plain way, as the reference for the engine's faster weighting.
"""

from bisect import bisect_left
from math import comb, factorial

from seqlab.partitions import syt_count
from seqlab.tableaux import field_width, layer_tables, unpack


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
    """Avoider counts 0..n weighted shape by shape: each key of each layer
    table decoded and its standard-filling count taken from ``syt_count``
    on the whole shape."""
    width = field_width(r, n)
    return [
        sum(syt_count(unpack(key, d - 1, width)) * count for key, count in table.items())
        for table in layer_tables(d, r, n)
    ]
