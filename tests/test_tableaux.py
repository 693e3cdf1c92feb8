from math import factorial

import pytest

from seqlab.partitions import is_horizontal_strip, partitions_upto_length, syt_count
from seqlab.tableaux import (
    advance_layer,
    avoiders_count,
    avoiders_sequence,
    initial_layer,
    kostka_uniform,
    layer_tables,
)

from helpers import brute_ssyt_count, catalan, multiset_total


class TestAdvanceLayer:
    def test_from_empty(self):
        assert advance_layer(initial_layer(), 2, 2) == {(2,): 1}

    def test_from_single_row(self):
        assert advance_layer({(2,): 1}, 2, 2) == {(4,): 1, (3, 1): 1, (2, 2): 1}

    def test_keys_reverse_lexicographic(self):
        table = initial_layer()
        for _ in range(5):
            table = advance_layer(table, 2, 3)
            keys = list(table)
            assert keys == sorted(keys, reverse=True)

    def test_r1_layers_reproduce_standard_counts(self):
        # with one cell per letter, the terminal count is the standard count
        table = initial_layer()
        for n in range(1, 9):
            table = advance_layer(table, 1, 3)
            for shape, value in table.items():
                assert value == syt_count(shape), (n, shape)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_matches_strip_filter(self, r, cap):
        # every candidate shape one letter up, kept if it is a horizontal
        # strip over some shape of the layer below
        expected = initial_layer()
        table = initial_layer()
        for n in range(1, 7):
            below = expected
            expected = {}
            for outer in partitions_upto_length(r * n, cap):
                total = sum(
                    count
                    for inner, count in below.items()
                    if is_horizontal_strip(inner, outer)
                )
                if total:
                    expected[outer] = total
            table = advance_layer(table, r, cap)
            assert list(table.items()) == list(expected.items()), (r, cap, n)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            advance_layer(initial_layer(), 0, 2)
        with pytest.raises(ValueError):
            advance_layer(initial_layer(), 2, 0)


class TestLayerTables:
    def test_tables_are_repeated_advances(self):
        table = initial_layer()
        expected = [table]
        for _ in range(5):
            table = advance_layer(table, 2, 3)
            expected.append(table)
        assert list(layer_tables(4, 2, 5)) == expected

    def test_rejects_bad_args_before_iteration(self):
        for d, r, n in [(1, 1, 3), (3, 0, 3), (3, 1, -1)]:
            with pytest.raises(ValueError):
                layer_tables(d, r, n)

    def test_each_consumer_advances_once_per_letter(self, monkeypatch):
        import seqlab.tableaux

        calls = []
        original = seqlab.tableaux.advance_layer
        monkeypatch.setattr(
            seqlab.tableaux, "advance_layer", lambda *a: calls.append(a) or original(*a)
        )
        for consume, n in [
            (lambda: avoiders_sequence(4, 2, 7), 7),
            (lambda: avoiders_count(4, 2, 6), 6),
            (lambda: kostka_uniform((4, 2), 2, 3), 3),
        ]:
            calls.clear()
            consume()
            assert len(calls) == n

    def test_count_weights_only_the_last_table(self, monkeypatch):
        import seqlab.tableaux

        shapes = []
        original = seqlab.tableaux.syt_count
        monkeypatch.setattr(
            seqlab.tableaux, "syt_count", lambda shape: shapes.append(shape) or original(shape)
        )
        avoiders_count(4, 2, 6)
        assert shapes == list(list(layer_tables(4, 2, 6))[-1])


class TestKostkaUniform:
    @pytest.mark.parametrize("r,n", [(1, 1), (2, 3), (3, 2), (5, 4)])
    def test_single_row_forced(self, r, n):
        assert kostka_uniform((r * n,), r, n) == 1

    def test_two_by_two(self):
        assert kostka_uniform((2, 2), 2, 2) == 1

    def test_standard_case(self):
        assert kostka_uniform((2, 1), 1, 3) == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            kostka_uniform((3, 1), 2, 3)

    def test_empty_shape(self):
        assert kostka_uniform((), 2, 0) == 1

    @pytest.mark.parametrize("r,n", [(1, 4), (1, 5), (2, 2), (2, 3), (3, 2), (4, 2)])
    def test_against_direct_enumeration(self, r, n):
        for shape in partitions_upto_length(r * n, r * n):
            assert kostka_uniform(shape, r, n) == brute_ssyt_count(shape, r, n), (
                shape,
                r,
                n,
            )


class TestAvoidersCount:
    @pytest.mark.parametrize("d,r", [(2, 1), (3, 2), (5, 3)])
    def test_empty_word(self, d, r):
        assert avoiders_count(d, r, 0) == 1

    @pytest.mark.parametrize("r", [1, 2, 4])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_forbidden_pair_means_decreasing(self, r, n):
        assert avoiders_count(2, r, n) == 1

    def test_two_letters_cannot_rise_three_times(self):
        assert avoiders_count(3, 2, 2) == 6

    def test_catalan_case(self):
        assert avoiders_count(3, 1, 4) == 14

    def test_short_words_all_avoid(self):
        for d in range(2, 7):
            for n in range(d):
                assert avoiders_count(d, 1, n) == factorial(n)

    def test_total_recovered_when_cap_exceeds_letters(self):
        # rows can never exceed the number of letters, so a loose cap counts
        # every word
        for r in (1, 2, 3):
            for n in range(5):
                assert avoiders_count(n + 1 if n else 2, r, n) == multiset_total(r, n)

    def test_monotone_in_d(self):
        for r in (1, 2):
            for n in range(6):
                counts = [avoiders_count(d, r, n) for d in range(2, 7)]
                assert counts == sorted(counts)

    def test_rsk_totality(self):
        # full-length cap: the tableau pairs biject with all words
        for r in range(1, 5):
            for n in range(13):
                if r * n > 12:
                    continue
                total = sum(
                    syt_count(shape) * kostka_uniform(shape, r, n)
                    for shape in partitions_upto_length(r * n, r * n)
                )
                assert total == multiset_total(r, n), (r, n)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            avoiders_count(1, 1, 3)
        with pytest.raises(ValueError):
            avoiders_count(3, 0, 3)
        with pytest.raises(ValueError):
            avoiders_count(3, 1, -1)


class TestAvoidersSequence:
    def test_all_ones(self):
        assert avoiders_sequence(2, 3, 5) == [1, 1, 1, 1, 1, 1]

    def test_catalan_prefix(self):
        assert avoiders_sequence(3, 1, 4) == [1, 1, 2, 5, 14]
        assert avoiders_sequence(3, 1, 12) == [catalan(n) for n in range(13)]

    def test_factorial_prefix(self):
        assert avoiders_sequence(4, 1, 3) == [1, 1, 2, 6]

    def test_agrees_with_pointwise_counts(self):
        for d, r in [(3, 2), (4, 1), (4, 3), (5, 2)]:
            seq = avoiders_sequence(d, r, 6)
            assert seq == [avoiders_count(d, r, n) for n in range(7)]
