"""Layered counting of column-strict tableaux and the avoider counts.

A layer table holds, for each shape with r*i cells, the number of
column-strict fillings that use each of the letters 1..i exactly r times.
Advancing a layer introduces the next letter, a horizontal strip of r cells,
so the terminal table holds Kostka numbers with uniform content. A table is
kept in slices and runs (see ``LayerTable``).

Counting words: a word over {1..n} with r copies of each letter has no
strictly increasing subsequence of length d exactly when the insertion shape
of its reversal (under the Robinson-Schensted-Knuth correspondence) has at
most d-1 rows. Pairing each such shape's Kostka number with its
standard-filling count and summing gives the avoider count, with the whole
dynamic program capped at d-1 rows from the start -- shapes only grow, so
taller shapes can be pruned the moment they appear. The standard-filling
count is the row-length formula split at row 1 (see ``_weighted_total``). A
count's pass starts from a checkpoint, a key (d, r) checked when it is made,
a layer and its table, and ``Checkpoint.advance`` is the one way it moves on.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from math import comb, prod
from operator import add, mul
from typing import Iterator

from .partitions import Partition, is_partition, syt_count


class LayerTable(dict):
    """A layer table as slice -> run. The slice is rows 2.. of a shape, as a
    partition; the run lists the counts of the shapes with those rows by row
    1 minus row 2, and row 0 takes the layer's other cells. A run starts at
    index 0 and holds no zero (a cell moved from row 1 up to row 0 keeps a
    filling possible). ``len()`` counts shapes and ``values()`` yields their
    counts; the engine reads a table only through ``items()``."""

    def __len__(self) -> int:
        return sum(map(len, dict.values(self)))

    def values(self):
        return chain.from_iterable(dict.values(self))


class Checkpoint:
    """Layer ``n``'s table for the key (d, r), checked when it is made:
    where a pass over the layers resumes. A new checkpoint is layer 0, the
    one layer with a default table, and ``advance`` is the one way a pass
    moves it on. Slotted: the key is read-only and only n and table move."""

    __slots__ = ("_d", "_r", "n", "table")

    def __init__(self, d: int, r: int, n: int = 0, table: LayerTable | None = None) -> None:
        if d < 2:
            raise ValueError("d must be at least 2")
        if r < 1 or n < 0:
            raise ValueError("need r >= 1 and n >= 0")
        if table is None and n:
            raise ValueError(f"layer {n} needs its table: only layer 0 has one by default")
        self._d, self._r, self.n = d, r, n
        self.table = LayerTable({(): [1]}) if table is None else table  # the empty filling

    d = property(lambda self: self._d)
    r = property(lambda self: self._r)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.d, self.r, self.n, self.table) == (other.d, other.r, other.n, other.table)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.d!r}, r={self.r!r}, n={self.n!r}, table={self.table!r})"

    def of(self, d: int, r: int) -> Checkpoint:
        """This checkpoint if its key is (d, r); else ValueError naming both."""
        if (self.d, self.r) != (d, r):
            raise ValueError(f"the checkpoint counts d={self.d} r={self.r}, not d={d} r={r}")
        return self

    def count(self) -> int:
        """The avoider count a(n) of this layer: its table, weighted with
        at most ``d - 1`` rows per shape."""
        return _weighted_total(self.table, self.r * self.n, self.d - 1)

    def advance(self, n: int) -> Iterator[int]:
        """Move on to layer ``n`` one letter at a time, yielding each new
        layer's index once this checkpoint holds that layer. The tables are
        capped at ``d - 1`` rows. This is the one place layers are
        advanced; its check of ``n`` is made at the first step."""
        if n < 0:
            raise ValueError("need r >= 1 and n >= 0")
        if self.n > n:
            raise ValueError(f"cannot start layers 0..{n} at layer {self.n}")
        while self.n < n:
            self.table = advance_layer(self.table, self.r, self.d - 1, self.r * self.n)
            self.n += 1
            yield self.n


def _strip_additions(room: tuple[int, ...], r: int) -> list[tuple[int, ...]]:
    """Every way to add at most ``r`` cells row by row, row i taking at most
    ``room[i]`` of them."""
    additions = [()]
    for top in room:
        additions = [a + (k,) for a in additions for k in range(min(top, r - sum(a)) + 1)]
    return additions


def advance_layer(table: LayerTable, r: int, cap: int, size: int) -> LayerTable:
    """One more letter: redistribute the counts of a table of shapes with
    ``size`` cells over their horizontal-strip extensions by ``r`` cells,
    pruning shapes taller than ``cap`` rows (with ``cap = 1``, row 1 is
    there but closed).

    A strip adds ``j_i`` cells to row i: row 0 any number, row i at most
    ``shape[i-1] - shape[i]``. On rows 3.. those are the slice's own gaps, so
    the strips are built once per slice length and gaps capped at ``r``.
    Rows 1 and 2 bound the run index t instead, ``j_2 <= t`` and ``j_1 <=
    shape[0] - shape[1]``, which falls by 2 as t grows, so a (slice, strip)
    pair adds a contiguous part of the run to the grown slice's run at index
    ``t + j_1 - j_2``. The result does not depend on the table's order, and
    its runs hold no zero.
    """
    if r < 1 or cap < 1 or size < 0:
        raise ValueError("r and cap must be positive, size nonnegative")
    depth = max(cap - 2, 0)  # rows in a slice
    moves: dict[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]] = {}
    grown = LayerTable()
    get = grown.get
    for part, run in table.items():
        padded = part + (0,) * (depth - len(part))
        signature = (len(part), *(min(r, a - b) for a, b in zip(padded, padded[1:])))
        strips = moves.get(signature)
        if strips is None:
            # (j_1, j_2, additions to the slice up to its last nonempty row);
            # row 0 takes the rest, and rows 1 and 2 have room r where they exist
            opens = len(part) < depth
            strips = moves[signature] = [
                (a[0], a[1], a[1 : len(part) + 1 + (opens and a[len(part) + 1] > 0)])
                for a in _strip_additions((r * (cap > 1), r * (cap > 2), *signature[1:]), r)
            ]
        gap = size - sum(part) - 2 * (part[0] if part else 0)  # row 0 minus row 1 at t = 0
        for j1, j2, tail in strips:
            stop = min(len(run), (gap - j1) // 2 + 1)
            if stop <= j2:
                continue
            grown_part = tuple(map(add, padded, tail))
            target = get(grown_part)
            if target is None:
                grown[grown_part] = [0] * j1 + run[j2:stop]
                continue
            end = j1 + stop - j2
            if len(target) < end:
                target += [0] * (end - len(target))
            target[j1:end] = map(add, target[j1:end], run[j2:stop])
    return grown


def kostka_uniform(shape: Partition, r: int, n: int) -> int:
    """Number of column-strict fillings of ``shape`` using each letter 1..n
    exactly ``r`` times (the Kostka number with uniform content).

    Requires a partition (weakly decreasing positive parts, no trailing
    zero) with ``sum(shape) == r * n``; zero when no filling exists.
    """
    shape = tuple(shape)
    if not is_partition(shape):
        raise ValueError(f"{shape} is not a partition")
    if sum(shape) != r * n:
        raise ValueError(
            f"shape size {sum(shape)} does not match r*n = {r}*{n} = {r * n}"
        )
    # capped at the shape's own k rows, i.e. d = k + 1: no needed shape is pruned
    cap = max(len(shape), 1)
    layer = Checkpoint(cap + 1, r)
    deque(layer.advance(n), maxlen=0)
    _, row1, row2, *_ = (*shape, 0, 0, 0)
    run = layer.table.get(shape[2:], ())
    return run[row1 - row2] if row1 - row2 < len(run) else 0


def _weighted_total(table: LayerTable, size: int, cap: int) -> int:
    """Sum of each shape's count times its standard-filling count, for a
    table of shapes with ``size`` cells and at most ``cap`` rows (two at
    least, as in ``advance_layer``).

    Rows 0 and 1 are peeled off. With k rows, shifted lengths ``l_i =
    shape[i] + k - 1 - i`` and a slice of ``m`` cells, Frobenius' row-length
    formula splits as ``f(shape) = C(size, m) * f(slice) * C(L, l_1) * P /
    ((size - m + 1) ... L)``, with ``L = l_0 + l_1 = size - m + 2k - 3`` and
    ``P = (l_0 - l_1) * prod_{j>=2} (l_0 - l_j) (l_1 - l_j)``. Along a run L
    stays, l_1 grows by one and l_0 falls by one, so each factor of P is a
    range and ``C(L, l_1)`` takes one ratio step per shape, ``C(L, l + 1) =
    C(L, l) * (L - l) / (l + 1)``, always exact. A run costs one
    ``syt_count`` of its slice and one division of its sum, which is
    checked to be exact. A run that reaches past row 0, or a slice of
    more than k - 2 rows, raises ``ValueError``, and so does a slice that is
    no partition, through ``syt_count``.
    """
    rows = max(cap, 2)
    total = 0
    for part, run in table.items():
        cells = sum(part)
        span = len(run)
        shifted = [p + rows - 3 - i for i, p in enumerate(part + (0,) * (rows - 2 - len(part)))]
        l_1 = shifted[0] + 1 if shifted else 0  # at index 0, where row 1 = row 2
        l_sum = size - cells + 2 * rows - 3  # L
        if len(shifted) != rows - 2 or l_sum - 2 * (l_1 + span - 1) <= 0:
            raise ValueError(f"no run of {span} shapes of at most {rows} rows has rows 2.. = {part}")
        weights = range(l_sum - 2 * l_1, l_sum - 2 * l_1 - 2 * span, -2)  # l_0 - l_1
        for l_j in shifted:
            weights = map(mul, weights, range(l_sum - l_1 - l_j, l_sum - l_1 - l_j - span, -1))
            weights = map(mul, weights, range(l_1 - l_j, l_1 - l_j + span))
        binomial = comb(l_sum, l_1)
        run_sum = 0
        for count, weight in zip(run, weights):
            run_sum += count * weight * binomial
            binomial = binomial * (l_sum - l_1) // (l_1 + 1)  # exact: C(L, l_1 + 1)
            l_1 += 1
        numerator = comb(size, cells) * syt_count(part) * run_sum
        denominator = prod(range(size - cells + 1, l_sum + 1))
        f, remainder = divmod(numerator, denominator)
        if remainder:
            raise ArithmeticError(f"{denominator} does not divide {numerator} for rows 2.. = {part}")
        total += f
    return total


def avoiders_count(
    d: int, r: int, n: int, start: Checkpoint | None = None
) -> int:
    """Number of words with exactly ``r`` copies of each of 1..n containing
    no strictly increasing subsequence of length ``d``. Only the last table
    is weighted. With ``start``, a (d, r) checkpoint (ValueError if not) at
    layer ``start.n <= n``, the pass resumes from it and moves it on to n."""
    layer = Checkpoint(d, r) if start is None else start.of(d, r)
    deque(layer.advance(n), maxlen=0)
    return layer.count()


def avoiders_sequence(
    d: int, r: int, n_max: int, start: Checkpoint | None = None
) -> list[int]:
    """Terms 0..n_max of the avoider counts, from one pass over the layer
    tables, each one weighted. With ``start``, a (d, r) checkpoint (else
    ValueError) at a layer whose term the caller already has, the pass
    resumes from it, returns only start.n+1..n_max and leaves it at n_max."""
    layer = Checkpoint(d, r) if start is None else start.of(d, r)
    terms = [layer.count() for _ in layer.advance(n_max)]
    # without a start, a(0) = 1 counts the empty word
    return terms if start is not None else [1, *terms]
