"""Integer partitions and Young-diagram combinatorics.

A partition is a plain tuple of weakly decreasing positive ints; the empty
tuple is the unique partition of 0. No trailing zeros are ever stored:
anything that conceptually pads with zeros does so at comparison time, so a
partition has exactly one representation (important for memo tables and
cache keys). All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

from math import comb, prod
from typing import Iterator

Partition = tuple[int, ...]


def is_partition(shape: Partition) -> bool:
    """Whether ``shape`` is a partition in the canonical form above."""
    # weakly decreasing, and the sentinel 1 makes the last part positive
    return all(a >= b > 0 for a, b in zip(shape, shape[1:] + (1,)))


def partitions_upto_length(total: int, max_parts: int) -> Iterator[Partition]:
    """Yield every partition of ``total`` with at most ``max_parts`` parts.

    The order is reverse-lexicographic -- (6), (5,1), (4,2), (4,1,1), (3,3),
    ... -- and is part of the contract: streams are reproducible run to run.
    ``total = 0`` yields only the empty partition.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    if total == 0:
        yield ()
        return

    def rec(remaining: int, largest: int, slots: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(largest, remaining), 0, -1):
            if part * slots < remaining:
                break
            for rest in rec(remaining - part, part, slots - 1):
                yield (part,) + rest

    yield from rec(total, total, max_parts)


def syt_count(shape: Partition) -> int:
    """Number of standard fillings of ``shape``, by Frobenius' row-length
    formula.

    With ``k`` rows, size ``N`` and shifted lengths ``l_i = shape[i] + k - 1
    - i`` (all distinct), the count is ``N! * prod_{i<j} (l_i - l_j) /
    prod_i l_i!``. The ``l_i`` sum to ``M = N + k(k-1)/2``, so ``N! / prod
    l_i!`` is the multinomial ``M! / prod l_i!`` (a product of ``k``
    binomials) over the small product ``(N+1) ... M``. That keeps every
    intermediate about the size of the answer: ``O(k^2)`` small-integer work
    and ``k`` binomials, against one big multiplication per cell for the hook
    product.

    Exact for any size; ``syt_count(()) == 1``. Parts that increase or are
    negative raise ``ValueError``. The final division is checked to be exact
    (it always is for a valid partition; a remainder means the input was
    corrupt).
    """
    k = len(shape)
    lengths = [part + k - 1 - i for i, part in enumerate(shape)]
    numerator = 1
    total = 0
    for i, li in enumerate(lengths):
        total += li
        numerator *= comb(total, li)
        for lj in lengths[i + 1 :]:
            if lj >= li:
                raise ValueError(f"{shape} is not a partition")
            numerator *= li - lj
    denominator = prod(range(sum(shape) + 1, total + 1))
    count, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"{denominator} does not divide the row-length numerator "
            f"{numerator} for {shape}"
        )
    return count

