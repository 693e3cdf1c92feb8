"""Brute-force ground truth: enumerate words directly and test increasing
subsequences, independently of the tableau machinery.

Intended for desk-size instances; the counting engine is validated against
this module, not the other way around.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from math import factorial

ENUMERATION_BUDGET = 10**6


def total_words(r: int, n: int) -> int:
    """Multiset permutations of {1^r, ..., n^r}: (rn)! / (r!)^n."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    return factorial(r * n) // factorial(r) ** n


def brute_count(
    d: int, r: int, n: int, budget: int | None = ENUMERATION_BUDGET
) -> int:
    """Count words on {1^r..n^r} with no strictly increasing subsequence of
    length ``d``, by depth-first multiset enumeration.

    The patience tails structure is maintained incrementally and undone on
    backtrack; a branch is pruned the moment its prefix reaches an increase
    of length d, which no extension can take back. Letters are tried in
    ascending order, so the traversal is deterministic. Emits a warning when
    the total word count exceeds ``budget`` (pass None to silence).
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if budget is not None:
        total = total_words(r, n)
        if total > budget:
            warnings.warn(
                f"enumerating {total} words for (d={d}, r={r}, n={n}) exceeds "
                f"the budget of {budget}; expect a long run",
                stacklevel=2,
            )
    limit = d - 1
    remaining = [r] * (n + 1)
    tails: list[int] = []

    def walk(cells: int) -> int:
        if cells == 0:
            return 1
        found = 0
        for letter in range(1, n + 1):
            if not remaining[letter]:
                continue
            pos = bisect_left(tails, letter)
            if pos == len(tails):
                if pos == limit:
                    continue
                tails.append(letter)
                remaining[letter] -= 1
                found += walk(cells - 1)
                remaining[letter] += 1
                tails.pop()
            else:
                old = tails[pos]
                tails[pos] = letter
                remaining[letter] -= 1
                found += walk(cells - 1)
                remaining[letter] += 1
                tails[pos] = old
        return found

    return walk(r * n)
