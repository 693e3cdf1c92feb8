"""Brute-force ground truth: grow words letter by letter and test
increasing subsequences, independently of the tableau machinery.

The search runs over prefixes and memoizes each one's count of completions
on the letters left and the patience tails, which is all a completion
depends on; no word is built twice from the same state. The counting engine
is validated against this module, not the other way around.
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
    length ``d``, by a depth-first search over prefixes.

    The patience tails structure is maintained incrementally and undone on
    backtrack. The search keeps its own stack of open prefixes, so a word
    may be longer than Python's recursion limit. A prefix is pruned once it
    holds an increase of length d-1 (the tails are full) while a letter
    above its last tail is left, since that letter completes an increase of
    length d wherever it goes; every other prefix has a completion, the one
    with the letters left in descending order. Letters are tried in
    ascending order, so the traversal is deterministic. The letters left and
    the tails fix every completion (the tails are all that patience sorting
    carries forward), so each such state is counted once and memoized for
    this call. Emits a warning when the total word count exceeds ``budget``
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
    limit = d - 1
    remaining = [r] * (n + 1)
    tails: list[int] = []
    memo: dict[tuple[int, ...], int] = {}  # (*remaining, *tails) -> completions
    # per open ancestor: its state, completions so far and letter iterator,
    # then the letter placed below it, its tail position and the tail it
    # replaced (0 when appended; letters start at 1)
    stack: list[tuple] = []
    if n == 0:
        return 1
    last = r * n - 1  # stack depth while the last letter is placed
    alphabet = range(1, n + 1)
    state, found, letters = (*remaining,), 0, iter(alphabet)
    while True:
        for letter in letters:
            if not remaining[letter]:
                continue
            pos = bisect_left(tails, letter)
            if pos == len(tails):
                old = 0
                tails.append(letter)
            else:
                old = tails[pos]
                tails[pos] = letter
            remaining[letter] -= 1
            if len(stack) == last:
                child = 1
            elif len(tails) == limit and any(remaining[tails[-1] + 1 :]):
                child = 0
            else:
                key = (*remaining, *tails)
                child = memo.get(key)
                if child is None:  # descend; this loop resumes on return
                    stack.append((state, found, letters, letter, pos, old))
                    state, found, letters = key, 0, iter(alphabet)
                    break
            if old:
                tails[pos] = old
            else:
                tails.pop()
            remaining[letter] += 1
            found += child
        else:
            memo[state] = child = found
            if not stack:
                return found
            state, found, letters, letter, pos, old = stack.pop()
            if old:
                tails[pos] = old
            else:
                tails.pop()
            remaining[letter] += 1
            found += child
