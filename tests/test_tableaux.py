from collections import deque
from dataclasses import fields
from itertools import islice
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.partitions import partitions_upto_length, syt_count
from seqlab.tableaux import (
    Checkpoint,
    LayerTable,
    _weighted_total,
    advance_layer,
    avoiders_count,
    avoiders_sequence,
    kostka_uniform,
)

from helpers import (
    brute_ssyt_count,
    catalan,
    cold_tables,
    decoded,
    direct_weighted_sequence,
    hook_length_count,
    is_horizontal_strip,
    multiset_total,
)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def one_shape(shape):
    """A table holding ``shape`` once: its slice, and a run that is zero up
    to the shape's index."""
    _, row1, row2, *_ = (*shape, 0, 0, 0)
    return LayerTable({tuple(shape[2:]): [0] * (row1 - row2) + [1]})


def last_checkpoint(d, r, n):
    layer = Checkpoint(d, r)
    deque(layer.advance(n), maxlen=0)
    return layer


class TestAdvanceLayer:
    def test_from_empty(self):
        assert decoded(advance_layer(Checkpoint(3, 2).table, 2, 2, 0), 2) == {(2,): 1}

    def test_from_single_row(self):
        table = advance_layer(LayerTable({(): [1]}), 2, 2, 2)
        # one run: row 1 = 0, 1, 2 cells
        assert table == {(): [1, 1, 1]}
        assert decoded(table, 4) == {(4,): 1, (3, 1): 1, (2, 2): 1}

    def test_runs_are_canonical(self):
        # every run starts at row 1 = row 2 and holds no zero, so len() counts
        # the shapes and values() yields their counts
        table = Checkpoint(5, 2).table
        for n in range(1, 9):
            table = advance_layer(table, 2, 4, 2 * (n - 1))
            shapes = decoded(table, 2 * n)
            assert all(run and 0 not in run for _, run in table.items())
            assert len(table) == len(shapes)
            assert sorted(table.values()) == sorted(shapes.values())

    def test_r1_layers_reproduce_standard_counts(self):
        # with one cell per letter, the terminal count is the standard count
        table = Checkpoint(4, 1).table
        for n in range(1, 9):
            table = advance_layer(table, 1, 3, n - 1)
            for shape, value in decoded(table, n).items():
                assert value == syt_count(shape), (n, shape)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_matches_strip_filter(self, r, cap):
        # every candidate shape one letter up, kept if it is a horizontal
        # strip over some shape of the layer below
        expected = {(): 1}
        table = Checkpoint(cap + 1, r).table
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
            table = advance_layer(table, r, cap, r * (n - 1))
            assert list(decoded(table, r * n).items()) == list(expected.items()), (r, cap, n)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            advance_layer(LayerTable({(): [1]}), 0, 2, 0)
        with pytest.raises(ValueError):
            advance_layer(LayerTable({(): [1]}), 2, 0, 0)
        with pytest.raises(ValueError):
            advance_layer(LayerTable({(): [1]}), 2, 2, -1)

    def test_row_outgrowing_its_field(self):
        # no row has a field to outgrow: a row of 2^70 cells grows like one
        # of 2 cells
        big = 2**70
        assert decoded(advance_layer(LayerTable({(): [1]}), 1, 2, big), big + 1) == {
            (big + 1,): 1,
            (big, 1): 1,
        }


class TestLayerTables:
    def test_tables_are_repeated_advances(self):
        table = Checkpoint(4, 2).table
        expected = [decoded(table, 0)]
        for n in range(1, 6):
            table = advance_layer(table, 2, 3, 2 * (n - 1))
            expected.append(decoded(table, 2 * n))
        assert cold_tables(4, 2, 5) == expected

    def test_rejects_bad_args(self):
        # a bad key is refused when the checkpoint is made (see TestKey)
        with pytest.raises(ValueError, match="need r >= 1 and n >= 0"):
            next(Checkpoint(3, 1).advance(-1))

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
        # one call per run of the last table (its slice), in table order;
        # none for a run only earlier tables have
        assert shapes == list(last_checkpoint(4, 2, 6).table)


class TestResume:
    def test_new_checkpoint_is_layer_zero(self):
        assert Checkpoint(3, 1) == Checkpoint(3, 1, 0, LayerTable({(): [1]}))
        assert list(Checkpoint(3, 1).advance(5)) == [1, 2, 3, 4, 5]

    def test_pass_stopped_part_way_resumes(self):
        # the checkpoint holds each layer by the time it is yielded, so a
        # pass cut after four yields is a checkpoint at layer 4
        cold = avoiders_sequence(4, 2, 10)
        layer = Checkpoint(4, 2)
        deque(islice(layer.advance(10), 4), maxlen=0)
        assert layer.n == 4
        assert layer.count() == cold[4]
        assert avoiders_sequence(4, 2, 10, layer) == cold[5:]
        assert layer == last_checkpoint(4, 2, 10)
        assert decoded(layer.table, 20) == cold_tables(4, 2, 10)[-1]

    @pytest.mark.parametrize("d, r, lo, hi", [(3, 1, 15, 40), (4, 2, 0, 6), (5, 2, 4, 12), (4, 3, 5, 5)])
    def test_resumed_pass_matches_a_cold_one(self, d, r, lo, hi):
        start = Checkpoint(d, r)
        head = avoiders_sequence(d, r, lo, start)
        assert start.n == lo
        assert start.count() == avoiders_count(d, r, lo)
        tail = avoiders_sequence(d, r, hi, start)
        assert [1, *head, *tail] == avoiders_sequence(d, r, hi)
        # the table moved on is the cold pass's last table, run for run
        assert start == last_checkpoint(d, r, hi)

    @pytest.mark.parametrize("d, r", [(3, 1), (6, 1), (4, 2)])
    def test_chained_counts_match_one_pass(self, d, r):
        start = Checkpoint(d, r)
        chained = [avoiders_count(d, r, n, start) for n in range(41)]
        assert chained == avoiders_sequence(d, r, 40)
        assert start == last_checkpoint(d, r, 40)

    @pytest.mark.parametrize("d", [3, 4])
    def test_resumed_checkpoint_holds_only_its_layer(self, d):
        # the checkpoint carries its key and its layer's table, and no memo
        # of the layers before, so the resumed one equals the cold one
        assert [f.name for f in fields(Checkpoint)] == ["d", "r", "n", "table"]
        start = Checkpoint(d, 1)
        avoiders_sequence(d, 1, 15, start)
        assert avoiders_sequence(d, 1, 40, start) == avoiders_sequence(d, 1, 40)[16:]
        assert start == last_checkpoint(d, 1, 40)

    def test_start_must_not_pass_the_last_layer(self):
        start = Checkpoint(3, 1, 6, LayerTable())
        with pytest.raises(ValueError, match="layer 6"):
            next(start.advance(5))
        assert start == Checkpoint(3, 1, 6, LayerTable())


class TestKey:
    @pytest.mark.parametrize("args, message", [
        ((1, 1), "d must be at least 2"),
        ((3, 0), "need r >= 1 and n >= 0"),
        ((3, 1, -1), "need r >= 1 and n >= 0"),
    ], ids=["d", "r", "n"])
    def test_checked_when_made(self, args, message):
        with pytest.raises(ValueError) as raised:
            Checkpoint(*args)
        assert str(raised.value) == message

    def test_count_refuses_a_checkpoint_of_another_key(self):
        # a (4,2) table moved on as (5,2) would count other words
        start = last_checkpoint(4, 2, 6)
        with pytest.raises(ValueError) as raised:
            avoiders_count(5, 2, 8, start)
        assert str(raised.value) == "the checkpoint counts d=4 r=2, not d=5 r=2"
        assert start == last_checkpoint(4, 2, 6)
        assert avoiders_count(5, 2, 8) == 20472135280

    def test_sequence_refuses_a_checkpoint_of_another_key(self):
        start = last_checkpoint(3, 1, 6)
        with pytest.raises(ValueError) as raised:
            avoiders_sequence(3, 2, 8, start)
        assert str(raised.value) == "the checkpoint counts d=3 r=1, not d=3 r=2"
        assert start == last_checkpoint(3, 1, 6)
        assert avoiders_sequence(3, 2, 8)[7:] == [280221, 2782476]


class TestWeighting:
    def test_peeled_row_matches_hook_lengths(self):
        # every partition of up to 24 cells, padded to every row count up to
        # 7, weighed on its own
        for cap in range(1, 8):
            for size in range(25):
                for shape in partitions_upto_length(size, cap):
                    got = _weighted_total(one_shape(shape), size, cap)
                    assert got == hook_length_count(shape), (shape, cap)

    def test_runs_weigh_shape_by_shape(self):
        # whole runs, with counts that keep every shape's share apart
        for cap in range(1, 6):
            for size in range(16):
                table = LayerTable()
                expected = 0
                for i, shape in enumerate(sorted(partitions_upto_length(size, cap), reverse=True)):
                    count = 1 << 64 * i
                    run = table.setdefault(shape[2:], [])
                    run.append(count)
                    expected += count * hook_length_count(shape)
                assert _weighted_total(table, size, cap) == expected, (size, cap)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 6), r=st.integers(1, 3), n=st.integers(0, 7))
    def test_matches_direct_weighting(self, d, r, n):
        assert avoiders_sequence(d, r, n) == direct_weighted_sequence(d, r, n)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 5), (0, 1), (3, 4, 1), (5, 3, 1, 2)])
    def test_rejects_non_partitions(self, shape):
        # row 1 longer than row 0 (the run reaches past row 0), or a slice
        # (rows 2..) that is no partition
        cap = len(shape)
        with pytest.raises(ValueError):
            _weighted_total(one_shape(shape), sum(shape), cap)

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_rejects_a_run_past_row_0(self, cap):
        # the shapes of 4 cells with rows 2.. empty end at (2, 2); a run one
        # longer would hold (1, 3)
        assert _weighted_total(LayerTable({(): [1, 1, 1]}), 4, cap) == 1 + 3 + 2
        with pytest.raises(ValueError, match="no run of 4 shapes"):
            _weighted_total(LayerTable({(): [1, 1, 1, 1]}), 4, cap)

    def test_rejects_a_slice_taller_than_the_cap(self):
        with pytest.raises(ValueError, match="at most 3 rows"):
            _weighted_total(LayerTable({(1, 1): [1]}), 4, 3)

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


class TestRowsAcrossPowersOfTwo:
    # the longest row, r*n cells, on both sides of a power of two: the
    # engine's shapes are tuples with no width limit, so every count stays
    # exact
    @pytest.mark.parametrize("r", [1, 63, 64, 127, 128])
    def test_two_letters(self, r):
        # no increasing run of 3 from two letters: every word counts
        assert avoiders_count(3, r, 2) == comb(2 * r, r)

    @pytest.mark.parametrize("r", [32767, 32768])
    def test_two_letters_sixteen_bits(self, r):
        # the table: every shape of 2r cells with row 1 <= r, each once, in
        # one run
        layer = last_checkpoint(3, r, 2)
        assert layer.table == {(): [1] * (r + 1)}
        expected = {(2 * r - k, k) if k else (2 * r,): 1 for k in range(r + 1)}
        assert cold_tables(3, r, 2)[-1] == expected
        # and its weighting, along a run of r + 1 shapes
        assert avoiders_count(3, r, 2) == comb(2 * r, r)

    @pytest.mark.parametrize("r", [85, 86])
    def test_three_letters(self, r):
        assert avoiders_count(4, r, 3) == factorial(3 * r) // factorial(r) ** 3
