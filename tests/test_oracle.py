import gc
import random
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import oracle
from seqlab.oracle import brute_count, total_words
from seqlab.tableaux import avoiders_sequence

from helpers import (
    enumerate_words,
    lis_quadratic,
    longest_strict_increase,
    multiset_total,
)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "data"


class TestLongestStrictIncrease:
    def test_examples(self):
        assert longest_strict_increase([1, 1, 2, 2]) == 2
        assert longest_strict_increase([3, 2, 1]) == 1
        assert longest_strict_increase([1, 2, 1, 3]) == 3

    def test_empty(self):
        assert longest_strict_increase([]) == 0

    def test_matches_quadratic_dp_on_random_words(self):
        rng = random.Random(20140)
        for _ in range(300):
            word = [rng.randint(1, 6) for _ in range(rng.randint(0, 14))]
            assert longest_strict_increase(word) == lis_quadratic(word), word

    @pytest.mark.parametrize("r,n", [(1, 4), (1, 5), (2, 3), (2, 4), (4, 2)])
    def test_reversal_swaps_increase_and_decrease(self, r, n):
        for word in enumerate_words(r, n):
            reverse = word[::-1]
            decrease = lis_quadratic([-x for x in reverse])
            assert longest_strict_increase(word) == decrease


class TestEnumerateWords:
    def test_two_letters_once(self):
        assert list(enumerate_words(1, 2)) == [(1, 2), (2, 1)]

    def test_counts(self):
        assert len(list(enumerate_words(2, 2))) == 6
        words = list(enumerate_words(1, 3))
        assert len(words) == 6
        assert words[0] == (1, 2, 3)

    @pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 2)])
    def test_lexicographic_and_complete(self, r, n):
        words = list(enumerate_words(r, n))
        assert words == sorted(words)
        assert len(words) == len(set(words)) == total_words(r, n)
        assert all(word.count(x) == r for word in words for x in range(1, n + 1))

    def test_empty_alphabet(self):
        assert list(enumerate_words(2, 0)) == [()]


class TestTotalWords:
    def test_values(self):
        assert total_words(1, 4) == 24
        assert total_words(2, 2) == 6
        assert total_words(3, 0) == 1
        assert total_words(2, 3) == multiset_total(2, 3)


class TestBruteCount:
    def test_examples(self):
        assert brute_count(3, 1, 4) == 14
        assert brute_count(2, 2, 3) == 1
        assert brute_count(4, 1, 3) == 6

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("r,n", [(1, 4), (1, 5), (2, 3), (2, 4), (3, 2)])
    def test_forward_pass_equals_filter_count(self, d, r, n):
        expected = sum(
            longest_strict_increase(word) < d for word in enumerate_words(r, n)
        )
        assert brute_count(d, r, n) == expected

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 6), r=st.integers(1, 3), data=st.data())
    def test_sampled_cases_equal_filter_count(self, d, r, data):
        # at most 2520 words
        n = data.draw(st.integers(0, {1: 6, 2: 4, 3: 3}[r]), label="n")
        expected = sum(
            longest_strict_increase(word) < d for word in enumerate_words(r, n)
        )
        assert brute_count(d, r, n, budget=None) == expected

    @pytest.mark.parametrize("d,r,n_max", [(5, 2, 8), (4, 2, 8), (4, 3, 5), (6, 2, 6)])
    def test_engine_past_enumeration_reach(self, d, r, n_max):
        # (5,2) at n = 8 alone is 81.7 billion words
        oracle_terms = [brute_count(d, r, n, budget=None) for n in range(n_max + 1)]
        assert oracle_terms == avoiders_sequence(d, r, n_max)
        path = REFERENCE / f"d{d}_r{r}.txt"
        if path.exists():
            lines = path.read_text().splitlines()
            terms = [int(line.split()[1]) for line in lines if line.strip() and line[0] != "#"]
            assert oracle_terms == terms[: n_max + 1]

    def test_states_live_for_one_call(self):
        names = set(vars(oracle))
        # with the cycle collector off, only the call itself can free its passes
        gc.disable()
        tracemalloc.start()
        try:
            assert brute_count(4, 2, 7, budget=None) == 41250519
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        # two passes of states (~1 MB) are held at the peak and gone after;
        # what stays is the interpreter's bounded free list of small tuples
        assert peak > 500_000
        assert after < peak / 3
        assert set(vars(oracle)) == names

    @pytest.mark.parametrize("r,n", [(1, 14), (2, 10)])
    def test_passes_hold_live_prefixes_only(self, r, n):
        # for d = 2 only the weakly decreasing word counts; every other
        # decreasing prefix is dead, and there are 2^n of them
        tracemalloc.start()
        try:
            assert brute_count(2, r, n, budget=None) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_words_longer_than_the_recursion_limit(self):
        # 1100 letters deep: only the decreasing word avoids an increase
        assert brute_count(2, 1, 1100, budget=None) == 1

    def test_budget_warning(self):
        with pytest.warns(UserWarning, match="budget"):
            brute_count(3, 1, 4, budget=10)

    def test_budget_warning_past_the_digit_limit(self):
        # 1559! words, 4303 digits: the warning names the budget, not the count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="more words than the budget of 10"):
                brute_count(3, 1, 1559, budget=10)

    def test_no_warning_when_disabled(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert brute_count(3, 1, 4, budget=None) == 14

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            brute_count(1, 1, 2)
        with pytest.raises(ValueError):
            brute_count(3, 0, 2)
