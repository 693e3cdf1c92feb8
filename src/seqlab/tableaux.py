"""Layered counting of column-strict tableaux and the avoider counts.

The central object is a layer table: a map from shapes with r*i cells to the
number of column-strict fillings that use each of the letters 1..i exactly r
times. Advancing a layer introduces the next letter, which occupies a
horizontal strip of r cells. The terminal table therefore holds Kostka
numbers with uniform content.

Counting words: a word over {1..n} with r copies of each letter has no
strictly increasing subsequence of length d exactly when the insertion shape
of its reversal (under the Robinson-Schensted-Knuth correspondence) has at
most d-1 rows. Pairing each such shape's Kostka number with its
standard-filling count and summing gives the avoider count, with the whole
dynamic program capped at d-1 rows from the start -- shapes only grow, so
taller shapes can be pruned the moment they appear.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from operator import add
from typing import Iterator

from .partitions import Partition, syt_count

LayerTable = dict[Partition, int]


def initial_layer() -> LayerTable:
    """Layer 0: one empty filling of the empty shape."""
    return {(): 1}


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
            for k in range(min(top, r - sum(a)) + 1)
            if r - sum(a) - k <= below
        ]
    return additions


def advance_layer(table: LayerTable, r: int, cap: int) -> LayerTable:
    """One more letter: redistribute every shape's count over its
    horizontal-strip extensions by ``r`` cells, pruning shapes taller than
    ``cap`` rows.

    A shape with fewer than ``cap`` rows gets one zero row, where the strip
    may open a new row. Row 0 may grow by any amount and row i by at most
    the old gap ``shape[i-1] - shape[i]`` (the strip condition). The strip
    additions depend only on those gaps capped at ``r``, so they are built
    once per distinct gap signature and shared by every shape that has it.

    Keys of the result are in reverse-lexicographic order, and the result is
    independent of iteration schedule (pure accumulation per target shape).
    """
    if r < 1 or cap < 1:
        raise ValueError("r and cap must be positive")
    additions: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    grown: LayerTable = {}
    for shape, count in table.items():
        p = shape + (0,) if len(shape) < cap else shape
        room = (r,) + tuple(min(r, a - b) for a, b in zip(p, p[1:]))
        strips = additions.get(room)
        if strips is None:
            strips = additions[room] = _strip_additions(room, r)
        for a in strips:
            target = tuple(map(add, p, a))
            if not target[-1]:
                target = target[:-1]
            grown[target] = grown.get(target, 0) + count
    return dict(sorted(grown.items(), reverse=True))


def layer_tables(d: int, r: int, n: int) -> Iterator[LayerTable]:
    """Layer tables 0..n capped at ``d - 1`` rows, each advanced from the one
    before only when it is asked for. This is the one place layers are
    advanced, and its argument check is the one every count shares."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    return accumulate(
        range(n), lambda table, _: advance_layer(table, r, d - 1), initial=initial_layer()
    )


def kostka_uniform(shape: Partition, r: int, n: int) -> int:
    """Number of column-strict fillings of ``shape`` using each letter 1..n
    exactly ``r`` times (the Kostka number with uniform content).

    Requires ``sum(shape) == r * n``; zero when no filling exists.
    """
    shape = tuple(shape)
    # capped at the shape's own k rows, i.e. d = k + 1: no needed shape is pruned
    tables = layer_tables(max(len(shape), 1) + 1, r, n)
    if sum(shape) != r * n:
        raise ValueError(
            f"shape size {sum(shape)} does not match r*n = {r}*{n} = {r * n}"
        )
    return deque(tables, maxlen=1).pop().get(shape, 0)


def _weighted_total(table: LayerTable) -> int:
    # pair each shape's column-strict count with its standard-filling count
    return sum(syt_count(shape) * count for shape, count in table.items())


def avoiders_count(d: int, r: int, n: int) -> int:
    """Number of words with exactly ``r`` copies of each of 1..n containing
    no strictly increasing subsequence of length ``d``. Only the last table
    is weighted."""
    return _weighted_total(deque(layer_tables(d, r, n), maxlen=1).pop())


def avoiders_sequence(d: int, r: int, n_max: int) -> list[int]:
    """Terms 0..n_max of the avoider counts, from one pass over the layer
    tables, each one weighted."""
    return [_weighted_total(table) for table in layer_tables(d, r, n_max)]
