"""Brute-force ground truth: grow words letter by letter and test
increasing subsequences, independently of the tableau machinery.

A word's prefix is summed up by the letters it has left and its patience
tails, which is all that its completions depend on. The count is pushed
forward one letter position at a time over these states, and a prefix is
dropped as soon as no completion avoids an increase of length d. The
counting engine is validated against this module, not the other way around.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from collections import defaultdict
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
    length ``d``, one letter position at a time.

    Each pass maps a live prefix's state to the number of prefixes in that
    state: the letters left, letter i + 1's count as digit i of one int in
    base r + 1, and the patience tails, the least last letter of an increase
    of each length (Aldous and Diaconis, Bull. AMS 36, 1999). A prefix is
    live when some completion avoids an increase of length d: unless the
    tails are full (length d - 1) and a letter above the last tail is left,
    the letters left in descending order are one. Only two passes are held
    at a time. Emits a warning when the total word count exceeds ``budget``
    (pass None to silence).
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if budget is not None and total_words(r, n) > budget:
        warnings.warn(
            f"(d={d}, r={r}, n={n}) has more words than the budget of {budget}",
            stacklevel=2,
        )
    base = r + 1
    states = {(base**n - 1, ()): 1}  # (letters left, tails) -> prefixes
    for _ in range(r * n):
        placed = defaultdict(int)
        for (left, tails), ways in states.items():
            rest, letter = left, 0
            while rest:
                rest, k = divmod(rest, base)  # rest: the letters above this one
                if k:
                    pos = bisect_left(tails, letter)
                    # A live prefix has no full tails below a letter left, so
                    # pos <= d - 2. At d - 2 the letter ends full tails, and
                    # the prefix dies if a letter above it is left. Lower, the
                    # tails stay short or keep their last tail, so a live
                    # prefix stays live. The tails never reach length d.
                    if pos != d - 2 or not rest:
                        key = (left - base**letter, tails[:pos] + (letter,) + tails[pos + 1 :])
                        placed[key] += ways
                letter += 1
        states = placed
    return sum(states.values())
