from math import factorial

import pytest

from seqlab.partitions import partitions_upto_length, syt_count

from helpers import (
    brute_partitions,
    brute_syt_count,
    cells_of,
    conjugate,
    hook_length_count,
    is_horizontal_strip,
)


class TestPartitionsUptoLength:
    def test_zero_total(self):
        assert list(partitions_upto_length(0, 3)) == [()]

    def test_three_two(self):
        # (1,1,1) excluded by the length cap
        assert list(partitions_upto_length(3, 2)) == [(3,), (2, 1)]

    def test_six_three_count(self):
        got = list(partitions_upto_length(6, 3))
        assert len(got) == 7
        assert set(got) == brute_partitions(6, 3)

    def test_reverse_lexicographic_order(self):
        got = list(partitions_upto_length(6, 3))
        assert got == sorted(got, reverse=True)

    @pytest.mark.parametrize("total", range(11))
    @pytest.mark.parametrize("max_parts", [1, 2, 3, 4])
    def test_matches_brute_force(self, total, max_parts):
        got = list(partitions_upto_length(total, max_parts))
        assert len(got) == len(set(got)), "duplicates yielded"
        assert set(got) == brute_partitions(total, max_parts)
        assert all(len(p) <= max_parts for p in got)

    def test_negative_total(self):
        with pytest.raises(ValueError):
            list(partitions_upto_length(-1, 2))


class TestSytCount:
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 40])
    def test_single_row(self, m):
        assert syt_count((m,) if m else ()) == 1

    def test_small_shapes_against_enumeration(self):
        assert syt_count((2, 1)) == 2
        assert syt_count((2, 2)) == 2
        for shape in [(3, 1), (3, 2), (2, 2, 1), (4, 3, 1), (2, 2, 2, 1)]:
            assert syt_count(shape) == brute_syt_count(shape)

    def test_rsk_sum_of_squares(self):
        # the counts of standard pairs biject with permutations
        for n in range(9):
            total = sum(
                syt_count(shape) ** 2 for shape in partitions_upto_length(n, n)
            )
            assert total == factorial(n)

    def test_conjugation_symmetry_and_exact_division(self):
        for size in range(13):
            for shape in partitions_upto_length(size, size):
                # syt_count raises if the hook product fails to divide
                assert syt_count(shape) == syt_count(conjugate(shape))

    def test_matches_hook_length_up_to_six_rows(self):
        for size in range(31):
            for shape in brute_partitions(size, 6):
                assert syt_count(shape) == hook_length_count(shape), shape

    def test_matches_hook_length_every_shape(self):
        for size in range(13):
            for shape in brute_partitions(size, size):
                assert syt_count(shape) == hook_length_count(shape), shape

    def test_rejects_non_partitions(self):
        # unchecked, the row-length formula gives syt_count((2, 4)) == -5
        for shape in [(2, 4), (1, 2), (3, 3, 4), (5, 1, 2), (3, -1), (-1,)]:
            with pytest.raises(ValueError):
                syt_count(shape)


class TestIsHorizontalStrip:
    def test_examples(self):
        assert is_horizontal_strip((), (3,))
        assert not is_horizontal_strip((1,), (2, 2))
        assert is_horizontal_strip((2, 1), (3, 2))

    def test_not_contained(self):
        assert not is_horizontal_strip((2,), (1,))
        assert not is_horizontal_strip((1, 1), (2,))

    def test_matches_cell_definition(self):
        # strip iff inner fits inside outer and added cells hit distinct columns
        shapes = [
            shape
            for size in range(7)
            for shape in partitions_upto_length(size, size)
        ]
        for inner in shapes:
            inner_cells = cells_of(inner)
            for outer in shapes:
                outer_cells = cells_of(outer)
                added = outer_cells - inner_cells
                expected = inner_cells <= outer_cells and len(added) == len(
                    {j for _, j in added}
                )
                assert is_horizontal_strip(inner, outer) == expected, (inner, outer)
