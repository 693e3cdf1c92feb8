"""Layered counting of column-strict tableaux and the avoider counts.

The central object is a layer table: a map from shapes with r*i cells to the
number of column-strict fillings that use each of the letters 1..i exactly r
times. Advancing a layer introduces the next letter, which occupies a
horizontal strip of r cells. The terminal table therefore holds Kostka
numbers with uniform content. A table keys each shape by one int, its rows
packed into fixed-width bit fields (see ``pack``), so growing a shape by a
strip is one integer addition.

Counting words: a word over {1..n} with r copies of each letter has no
strictly increasing subsequence of length d exactly when the insertion shape
of its reversal (under the Robinson-Schensted-Knuth correspondence) has at
most d-1 rows. Pairing each such shape's Kostka number with its
standard-filling count and summing gives the avoider count, with the whole
dynamic program capped at d-1 rows from the start -- shapes only grow, so
taller shapes can be pruned the moment they appear. The standard-filling
count is the row-length formula split at row 0: a few small-integer
factors per shape times the count of the rows below it, which is memoized
on the pass's ``Checkpoint`` (see ``_weighted_total``). A count's pass
starts from a checkpoint, layer 0 unless it resumes, and
``Checkpoint.advance`` is the one way it moves on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import comb, prod
from typing import Iterator

from .partitions import Partition, is_partition, syt_count

# shape key (see ``pack``) -> number of fillings
LayerTable = dict[int, int]


def field_width(r: int, n: int) -> int:
    """Bits per row in the shape keys of layers 0..n: enough for the
    longest row any of them can have, ``r * n`` cells."""
    return max(1, (r * n).bit_length())


def pack(shape: Partition, cap: int, width: int) -> int:
    """The key of ``shape``: ``cap`` fields of ``width`` bits, row 0 in the
    most significant field and a zero field for every missing row.
    Descending key order is reverse-lexicographic order on shapes, and
    adding the key of a strip's row-by-row cell counts to a shape's key
    gives the key of the grown shape."""
    key = 0
    for part in shape:
        key = key << width | part
    return key << width * (cap - len(shape))


def unpack(key: int, cap: int, width: int) -> Partition:
    """The partition whose key is ``key`` (the inverse of ``pack``)."""
    rows = []
    shift = width * (cap - 1)
    while key:  # until only empty rows are left
        rows.append(key >> shift)
        key &= (1 << shift) - 1
        shift -= width
    return tuple(rows)


@dataclass
class Checkpoint:
    """Layer ``n``'s table, keyed with ``width``-bit fields: where a pass
    over the layers resumes. A new checkpoint is layer 0, and ``advance``
    is the one way a pass moves it on.

    ``lower`` is the lower-row memo of ``_weighted_total``, keyed like the
    table at ``width`` bits per field; it is no part of the checkpoint's
    value, so equality compares only ``n``, ``width`` and ``table``. The
    memo lasts as long as the width: the next pass at that width counts no
    lower rows the memo already holds."""

    n: int = 0
    width: int = 1
    table: LayerTable = field(default_factory=lambda: {0: 1})  # the empty filling
    lower: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    def count(self, d: int, r: int) -> int:
        """The avoider count a(n) of this layer: its table, weighted through
        the memo, with ``d - 1`` fields per key."""
        return _weighted_total(self.table, r * self.n, d - 1, self.width, self.lower)

    def advance(self, d: int, r: int, n: int) -> Iterator[int]:
        """Move on to layer ``n`` one letter at a time, yielding each new
        layer's index once this checkpoint holds that layer. The tables are
        capped at ``d - 1`` rows and keyed with ``field_width(r, n)`` bits
        per field; when that differs from ``width``, the table is repacked
        (``unpack`` then ``pack``) and the memo dropped. This is the one
        place layers are advanced, and its argument check, made at the
        first step, is the one every count shares."""
        if d < 2:
            raise ValueError("d must be at least 2")
        if r < 1 or n < 0:
            raise ValueError("need r >= 1 and n >= 0")
        if not 0 <= self.n <= n:
            raise ValueError(f"cannot start layers 0..{n} at layer {self.n}")
        cap, width = d - 1, field_width(r, n)
        if width != self.width:
            self.table = {
                pack(unpack(key, cap, self.width), cap, width): count
                for key, count in self.table.items()
            }
            self.width, self.lower = width, {}
        while self.n < n:
            self.table = advance_layer(self.table, r, cap, width)
            self.n += 1
            yield self.n


def _strip_additions(room: tuple[int, ...], r: int) -> list[tuple[int, ...]]:
    """Every way to add ``r`` cells row by row, row i taking at most
    ``room[i]`` of them."""
    additions = [()]
    for i, top in enumerate(room):
        # what the rows below can still take in total
        below = sum(room[i + 1 :])
        additions = [
            a + (k,)
            for a in additions
            for k in range(max(0, r - sum(a) - below), min(top, r - sum(a)) + 1)
        ]
    return additions


def advance_layer(table: LayerTable, r: int, cap: int, width: int) -> LayerTable:
    """One more letter: redistribute every shape's count over its
    horizontal-strip extensions by ``r`` cells, pruning shapes taller than
    ``cap`` rows. Keys are ``pack``-ed with ``cap`` fields of ``width`` bits.

    Row 0 may grow by any amount and row i by at most the gap ``shape[i-1]
    - shape[i]`` (the strip condition); a zero row under a nonempty one is
    where the strip may open a new row, and rows past ``cap`` do not exist.
    The strip additions depend only on those gaps capped at ``r``, so they
    are built once per distinct capped signature, as packed deltas, and each
    (shape, strip) pair is one integer addition.

    Keys of the result are in descending order (reverse-lexicographic on
    shapes), and the result is independent of iteration schedule (pure
    accumulation per target shape). A row that outgrows its field raises
    ``ValueError``.
    """
    if r < 1 or cap < 1 or width < 1:
        raise ValueError("r, cap and width must be positive")
    mask = (1 << width) - 1
    shifts = range(width * (cap - 1), -1, -width)
    below_top = (1 << width * (cap - 1)) - 1
    deltas: dict[tuple[int, ...], list[int]] = {}
    grown: LayerTable = {}
    get = grown.get
    for key, count in table.items():
        # the shape moved down one row, less its rows 1..cap-1, holds the gap
        # shape[i-1] - shape[i] in field i (gaps are never negative: no
        # borrows); they are read from the bottom row up to the last nonzero
        gaps = (key >> width) - (key & below_top)
        signature = []
        while gaps:
            gap = gaps & mask
            signature.append(gap if gap < r else r)
            gaps >>= width
        signature = tuple(signature)
        strips = deltas.get(signature)
        if strips is None:
            room = (r, *reversed(signature + (0,) * (cap - 1 - len(signature))))
            strips = deltas[signature] = [
                sum(k << s for k, s in zip(a, shifts)) for a in _strip_additions(room, r)
            ]
        for delta in strips:
            target = key + delta
            grown[target] = get(target, 0) + count
    items = sorted(grown.items(), reverse=True)
    # rows never exceed row 0, so only row 0 can overflow, past the top field
    if items and items[0][0] >> width * cap:
        raise ValueError(f"row 0 outgrows its {width}-bit field")
    return dict(items)


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
    layer = Checkpoint()
    deque(layer.advance(cap + 1, r, n), maxlen=0)
    return layer.table.get(pack(shape, cap, layer.width), 0)


def _weighted_total(
    table: LayerTable, size: int, cap: int, width: int, lower: dict[int, int]
) -> int:
    """Sum of each shape's count times its standard-filling count, for a
    table of shapes with ``size`` cells keyed with ``cap`` fields of
    ``width`` bits.

    Row 0 is peeled off. With ``a = shape[0]``, rows 1..cap-1 read as
    ``l_1, l_2, ...`` (zero where missing) and ``j`` running over 1..cap-1,
    Frobenius' row-length formula splits as ``f(shape) = C(size, a) * prod
    (a - l_j + j) * f(rows 1..) / prod (a + j)``. ``lower`` memoizes ``f(rows
    1..)`` by the key's low ``cap - 1`` fields: the same lower rows recur
    across layers, so one pass keeps one memo, which its checkpoint carries
    on while the width stays (see ``Checkpoint``), and a miss calls
    ``syt_count``. What depends on ``a`` alone is computed again only when
    ``a`` changes: in table order row 0 never grows, and where it drops by
    one, ``C(size, a)`` and ``prod (a + j)`` each take one ratio step instead
    of a fresh ``comb``. Every division is checked to be exact, and a row
    longer than row 0 raises ``ValueError``.
    """
    below = width * (cap - 1)
    low_mask = (1 << below) - 1
    mask = (1 << width) - 1
    rows = tuple(enumerate(range(below - width, -1, -width), 1))  # (j, shift of row j)
    total = 0
    last = -1
    for key, count in table.items():
        a = key >> below
        low = key & low_mask
        rest = lower.get(low)
        if rest is None:
            rest = lower[low] = syt_count(unpack(low, cap - 1, width))
        if a == last - 1:
            head, r_head = divmod(head * (a + 1), size - a)
            denominator, r_den = divmod(denominator * (a + 1), a + cap)
            if r_head or r_den:
                raise ArithmeticError(f"inexact binomial step to row 0 = {a}")
        elif a != last:
            head = comb(size, a)
            denominator = prod(range(a + 1, a + cap))
        last = a
        numerator = head * rest
        for j, shift in rows:
            factor = a + j - (low >> shift & mask)
            if factor <= 0:  # syt_count accepted rows 1.., so row 1 exceeds row 0
                raise ValueError(f"{unpack(key, cap, width)} is not a partition")
            numerator *= factor
        f, remainder = divmod(numerator, denominator)
        if remainder:
            raise ArithmeticError(
                f"{denominator} does not divide {numerator} for {unpack(key, cap, width)}"
            )
        total += f * count
    return total


def avoiders_count(
    d: int, r: int, n: int, start: Checkpoint | None = None
) -> int:
    """Number of words with exactly ``r`` copies of each of 1..n containing
    no strictly increasing subsequence of length ``d``. Only the last table
    is weighted. With ``start``, a checkpoint at layer ``start.n <= n``, the
    pass resumes from it and moves it on to layer ``n``."""
    layer = Checkpoint() if start is None else start
    deque(layer.advance(d, r, n), maxlen=0)
    return layer.count(d, r)


def avoiders_sequence(
    d: int, r: int, n_max: int, start: Checkpoint | None = None
) -> list[int]:
    """Terms 0..n_max of the avoider counts, from one pass over the layer
    tables, each one weighted. With ``start``, a checkpoint at a layer whose
    term the caller already has, the pass resumes from it, returns only the
    terms start.n+1..n_max and leaves ``start`` at layer ``n_max``."""
    layer = Checkpoint() if start is None else start
    terms = [layer.count(d, r) for _ in layer.advance(d, r, n_max)]
    # without a start, a(0) = 1 counts the empty word
    return terms if start is not None else [1, *terms]
