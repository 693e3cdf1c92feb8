from collections import deque
from itertools import islice
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.partitions import partitions_upto_length, syt_count
from seqlab.tableaux import (
    Checkpoint,
    _weighted_total,
    advance_layer,
    avoiders_count,
    avoiders_sequence,
    field_width,
    kostka_uniform,
    pack,
    unpack,
)

from helpers import (
    brute_ssyt_count,
    catalan,
    cold_tables,
    direct_weighted_sequence,
    hook_length_count,
    is_horizontal_strip,
    multiset_total,
)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "data"
W = 8  # field width of the tables built by hand below


def decoded(table, cap, width=W):
    """A layer table with its keys decoded to partitions, in table order."""
    return {unpack(key, cap, width): count for key, count in table.items()}


class TestPackedKeys:
    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_round_trip_and_order(self, cap):
        for total in range(13):
            expected = list(partitions_upto_length(total, cap))
            keys = [pack(shape, cap, 4) for shape in expected]
            assert [unpack(key, cap, 4) for key in keys] == expected
            # descending keys are reverse-lexicographic shapes
            assert keys == sorted(keys, reverse=True)

    def test_layout(self):
        # row 0 in the top field, an empty row is a zero field
        assert pack((5, 3), 3, 4) == 5 << 8 | 3 << 4
        assert pack((), 3, 4) == 0
        assert unpack(5 << 8 | 3 << 4, 3, 4) == (5, 3)

    def test_strip_is_one_addition(self):
        assert pack((4, 2, 1), 3, W) == pack((3, 2), 3, W) + pack((1, 0, 1), 3, W)

    def test_width_covers_the_longest_row(self):
        assert [field_width(r, n) for r, n in [(1, 0), (1, 1), (2, 2), (1, 8), (5, 51)]] == [
            1, 1, 3, 4, 8
        ]


class TestAdvanceLayer:
    def test_from_empty(self):
        assert decoded(advance_layer(Checkpoint().table, 2, 2, W), 2) == {(2,): 1}

    def test_from_single_row(self):
        table = advance_layer({pack((2,), 2, W): 1}, 2, 2, W)
        assert decoded(table, 2) == {(4,): 1, (3, 1): 1, (2, 2): 1}

    def test_keys_reverse_lexicographic(self):
        table = Checkpoint().table
        for _ in range(5):
            table = advance_layer(table, 2, 3, W)
            keys = list(decoded(table, 3))
            assert keys == sorted(keys, reverse=True)
            assert list(table) == sorted(table, reverse=True)

    def test_r1_layers_reproduce_standard_counts(self):
        # with one cell per letter, the terminal count is the standard count
        table = Checkpoint().table
        for n in range(1, 9):
            table = advance_layer(table, 1, 3, W)
            for shape, value in decoded(table, 3).items():
                assert value == syt_count(shape), (n, shape)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_matches_strip_filter(self, r, cap):
        # every candidate shape one letter up, kept if it is a horizontal
        # strip over some shape of the layer below
        expected = {(): 1}
        table = Checkpoint().table
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
            table = advance_layer(table, r, cap, W)
            assert list(decoded(table, cap).items()) == list(expected.items()), (r, cap, n)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            advance_layer(Checkpoint().table, 0, 2, W)
        with pytest.raises(ValueError):
            advance_layer(Checkpoint().table, 2, 0, W)
        with pytest.raises(ValueError):
            advance_layer(Checkpoint().table, 2, 2, 0)

    def test_row_outgrowing_its_field(self):
        # a 2-bit field holds rows of up to 3 cells
        assert decoded(advance_layer({pack((2,), 2, 2): 1}, 1, 2, 2), 2, 2) == {
            (3,): 1,
            (2, 1): 1,
        }
        with pytest.raises(ValueError, match="2-bit"):
            advance_layer({pack((3,), 2, 2): 1}, 1, 2, 2)


class TestLayerTables:
    def test_tables_are_repeated_advances(self):
        width = field_width(2, 5)
        table = Checkpoint().table
        expected = [table]
        for _ in range(5):
            table = advance_layer(table, 2, 3, width)
            expected.append(table)
        assert [decoded(t, 3, width) for t in cold_tables(4, 2, 5)] == [
            decoded(t, 3, width) for t in expected
        ]

    def test_rejects_bad_args(self):
        for d, r, n in [(1, 1, 3), (3, 0, 3), (3, 1, -1)]:
            with pytest.raises(ValueError):
                next(Checkpoint().advance(d, r, n))

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
        last = cold_tables(4, 2, 6)[-1]
        # one call per distinct lower-row shape (rows 1..) of the last table,
        # in first-seen order; none for a shape only earlier tables have
        lower = [unpack(key, 3, field_width(2, 6))[1:] for key in last]
        assert shapes == list(dict.fromkeys(lower))


class TestResume:
    def test_new_checkpoint_is_layer_zero(self):
        assert Checkpoint() == Checkpoint(0, 1, {0: 1})
        assert list(Checkpoint().advance(3, 1, 5)) == [1, 2, 3, 4, 5]

    def test_pass_stopped_part_way_resumes(self):
        # the checkpoint holds each layer by the time it is yielded, so a
        # pass cut after four yields is a checkpoint at layer 4
        cold = avoiders_sequence(4, 2, 10)
        layer = Checkpoint()
        deque(islice(layer.advance(4, 2, 10), 4), maxlen=0)
        assert layer.n == 4
        assert layer.count(4, 2) == cold[4]
        assert avoiders_sequence(4, 2, 10, layer) == cold[5:]
        last = cold_tables(4, 2, 10)[-1]
        assert layer == Checkpoint(10, field_width(2, 10), last)

    @pytest.mark.parametrize("d, r, lo, hi", [(3, 1, 15, 40), (4, 2, 0, 6), (5, 2, 4, 12), (4, 3, 5, 5)])
    def test_resumed_pass_matches_a_cold_one(self, d, r, lo, hi):
        start = Checkpoint()
        head = avoiders_sequence(d, r, lo, start)
        assert (start.n, start.width) == (lo, field_width(r, lo))
        assert start.count(d, r) == avoiders_count(d, r, lo)
        tail = avoiders_sequence(d, r, hi, start)
        assert [1, *head, *tail] == avoiders_sequence(d, r, hi)
        # the table moved on is the cold pass's last table, in its key order
        last = cold_tables(d, r, hi)[-1]
        assert (start.n, start.width) == (hi, field_width(r, hi))
        assert list(start.table.items()) == list(last.items())

    @pytest.mark.parametrize("d, r", [(3, 1), (6, 1), (4, 2)])
    def test_chained_counts_match_one_pass(self, d, r):
        # n = 0..40 crosses every width change of the pass, so a memo read
        # at the wrong width would show
        start = Checkpoint()
        chained = [avoiders_count(d, r, n, start) for n in range(41)]
        assert chained == avoiders_sequence(d, r, 40)
        assert (start.n, start.width) == (40, field_width(r, 40))

    @pytest.mark.parametrize("d", [3, 4])
    def test_widening_resume_drops_the_memo(self, d):
        # 4-bit keys to 6-bit ones; with d = 4 the lower rows take two
        # fields, so a stale key would decode to another shape
        start = Checkpoint()
        avoiders_sequence(d, 1, 15, start)
        assert start.width == 4 and start.lower
        assert avoiders_sequence(d, 1, 40, start) == avoiders_sequence(d, 1, 40)[16:]
        assert start.width == 6
        cap = d - 1
        below = (1 << 6 * (cap - 1)) - 1
        lows = {key & below for table in cold_tables(d, 1, 40)[16:] for key in table}
        assert set(start.lower) == lows
        assert all(f == syt_count(unpack(low, cap - 1, 6)) for low, f in start.lower.items())

    def test_start_must_not_pass_the_last_layer(self):
        start = Checkpoint(6, field_width(1, 6), {})
        with pytest.raises(ValueError, match="layer 6"):
            next(start.advance(3, 1, 5))
        assert start == Checkpoint(6, field_width(1, 6), {})


class TestWeighting:
    def test_peeled_row_matches_hook_lengths(self):
        # every partition of up to 24 cells, padded to every row count up to
        # 7; one memo per row count, so later sizes also read memoized rows
        for cap in range(1, 8):
            lower = {}
            for size in range(25):
                for shape in partitions_upto_length(size, cap):
                    table = {pack(shape, cap, W): 1}
                    got = _weighted_total(table, size, cap, W, lower)
                    assert got == hook_length_count(shape), (shape, cap)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 6), r=st.integers(1, 3), n=st.integers(0, 7))
    def test_matches_direct_weighting(self, d, r, n):
        assert avoiders_sequence(d, r, n) == direct_weighted_sequence(d, r, n)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 5), (0, 1), (3, 4, 1), (3, 1, 2)])
    def test_rejects_non_partitions(self, shape):
        # row 1 longer than row 0 (the peeled factor is zero or negative), or
        # lower rows that are no partition
        cap = len(shape)
        with pytest.raises(ValueError):
            _weighted_total({pack(shape, cap, W): 1}, sum(shape), cap, W, {})

    def test_no_memo_outlives_a_call(self, monkeypatch):
        import seqlab.tableaux

        calls = []
        original = seqlab.tableaux.syt_count
        monkeypatch.setattr(
            seqlab.tableaux, "syt_count", lambda shape: calls.append(shape) or original(shape)
        )
        counts = []
        for _ in range(2):
            calls.clear()
            avoiders_sequence(5, 2, 12)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


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

    @pytest.mark.parametrize(
        "shape, r, n",
        [((4, 2, 0), 2, 3), ((7, -1), 2, 3), ((2, 4), 2, 3), ((0,), 2, 0), ((3, 3, 4, 2), 3, 4)],
    )
    def test_rejects_non_partitions(self, shape, r, n):
        with pytest.raises(ValueError, match="not a partition"):
            kostka_uniform(shape, r, n)

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

    @pytest.mark.parametrize("name, d, n", [("d4_r2.txt", 4, 60), ("d5_r2.txt", 5, 36)])
    def test_reference_prefix(self, name, d, n):
        lines = (REFERENCE / name).read_text().splitlines()
        terms = [int(line.split()[1]) for line in lines if line.strip() and line[0] != "#"]
        assert avoiders_sequence(d, 2, n) == terms[: n + 1]


class TestFieldWidthBoundaries:
    # widths on both sides of a power of two: the longest row, r*n cells,
    # just fits its field or needs one more bit
    @pytest.mark.parametrize("r", [1, 63, 64, 127, 128])
    def test_two_letters(self, r):
        # no increasing run of 3 from two letters: every word counts
        assert avoiders_count(3, r, 2) == comb(2 * r, r)

    @pytest.mark.parametrize("r", [32767, 32768])
    def test_two_letters_sixteen_bits(self, r):
        # the table: every shape of 2r cells with row 1 <= r, each once
        last = cold_tables(3, r, 2)[-1]
        expected = {(2 * r - k, k) if k else (2 * r,): 1 for k in range(r + 1)}
        assert list(decoded(last, 2, field_width(r, 2)).items()) == list(expected.items())
        # and its weighting, where row 0 drops by one from shape to shape
        assert avoiders_count(3, r, 2) == comb(2 * r, r)

    @pytest.mark.parametrize("r", [85, 86])
    def test_three_letters(self, r):
        assert avoiders_count(4, r, 3) == factorial(3 * r) // factorial(r) ** 3
