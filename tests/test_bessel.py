from fractions import Fraction
from math import comb, factorial

import pytest

from seqlab.bessel import (
    _series_mul,
    bessel_I_2x,
    bessel_determinant,
    gessel_check,
    series_det,
)
from seqlab.cli import main
from seqlab.oracle import brute_count

from helpers import (
    catalan,
    fraction_bessel_I_2x,
    fraction_series_det,
    fraction_series_mul,
)


def series(trunc, *coeffs):
    """The series with the given leading coefficients, padded with zeros to
    ``trunc + 1`` of them."""
    return list(coeffs) + [0] * (trunc + 1 - len(coeffs))


def egf(coeffs):
    """Exponential coefficients ``m! * c_m`` of ordinary ones, each an
    integer."""
    out = [Fraction(c) * factorial(m) for m, c in enumerate(coeffs)]
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out]


def ordinary(coeffs):
    """Ordinary coefficients of exponential ones."""
    return [Fraction(c, factorial(m)) for m, c in enumerate(coeffs)]


def add(a, b):
    return [x + y for x, y in zip(a, b)]


def sub(a, b):
    return [x - y for x, y in zip(a, b)]


class TestTruncSeries:
    def test_truncation_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            _series_mul(series(2, 1), series(3, 1))
        with pytest.raises(ValueError, match="mismatch"):
            _series_mul(series(3, 1), series(2, 1))


class TestSeriesMul:
    def test_mul_truncates(self):
        a = egf(series(3, 1, 1))  # 1 + x
        assert _series_mul(a, a) == egf(series(3, 1, 2, 1))
        x = egf(series(2, 0, 1))
        assert _series_mul(_series_mul(x, x), x) == series(2)  # x^3 vanishes mod x^3

    @pytest.mark.parametrize("trunc", [0, 3, 10])
    def test_matches_ordinary_product(self, trunc):
        a = fraction_bessel_I_2x(0, trunc)
        b = [Fraction(m + 1) for m in range(trunc + 1)]
        assert ordinary(_series_mul(egf(a), egf(b))) == fraction_series_mul(a, b)


class TestBesselSeries:
    def test_order_zero(self):
        assert ordinary(bessel_I_2x(0, 4)) == series(4, 1, 0, 1, 0, Fraction(1, 4))
        assert bessel_I_2x(0, 4) == [1, 0, 2, 0, 6]

    def test_order_one(self):
        assert ordinary(bessel_I_2x(1, 3)) == series(3, 0, 1, 0, Fraction(1, 2))
        assert bessel_I_2x(1, 3) == [0, 1, 0, 3]

    def test_order_above_truncation(self):
        assert bessel_I_2x(7, 3) == series(3)

    def test_exponent_structure(self):
        for nu in range(5):
            s = bessel_I_2x(nu, 12)
            for power, c in enumerate(s):
                assert isinstance(c, int)
                j2 = power - nu
                if j2 >= 0 and j2 % 2 == 0:
                    j = j2 // 2
                    assert Fraction(c, factorial(power)) == Fraction(
                        1, factorial(j) * factorial(j + nu)
                    )
                    assert c == comb(power, j)
                else:
                    assert c == 0


def _cofactor_along_row(matrix, row):
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    acc = series(len(matrix[0][0]) - 1)
    for col in range(k):
        minor = [
            [matrix[i][j] for j in range(k) if j != col]
            for i in range(k)
            if i != row
        ]
        term = _series_mul(matrix[row][col], _cofactor_along_row(minor, 0))
        acc = add(acc, term) if (row + col) % 2 == 0 else sub(acc, term)
    return acc


class TestSeriesDet:
    def test_one_by_one(self):
        s = series(3, 2, 1)
        assert series_det([[s]]) == s

    def test_identity_matrix(self):
        one, zero = series(4, 1), series(4)
        m = [[one, zero], [zero, one]]
        assert series_det(m) == one

    def test_two_by_two(self):
        a, b = series(3, 1, 1), series(3, 0, 1)
        c, d = series(3, 2), series(3, 1, 0, 1)
        assert series_det([[a, b], [c, d]]) == sub(_series_mul(a, d), _series_mul(b, c))

    def test_bessel_two_by_two(self):
        i0, i1 = bessel_I_2x(0, 6), bessel_I_2x(1, 6)
        assert series_det([[i0, i1], [i1, i0]]) == sub(
            _series_mul(i0, i0), _series_mul(i1, i1)
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_agrees_with_cofactor_expansion(self, k):
        matrix = [[bessel_I_2x(abs(i - j), 8) for j in range(k)] for i in range(k)]
        det = series_det(matrix)
        assert det == _cofactor_along_row(matrix, 0)
        assert det == _cofactor_along_row(matrix, min(1, k - 1))

    def test_rejects_non_square(self):
        s = series(2, 1)
        with pytest.raises(ValueError, match="square"):
            series_det([[s, s]])
        with pytest.raises(ValueError, match="square"):
            series_det([[s, s], [s]])
        with pytest.raises(ValueError, match="nonempty"):
            series_det([])

    def test_rejects_mixed_truncations(self):
        with pytest.raises(ValueError, match="truncation"):
            series_det([[series(2, 1), series(3, 1)],
                        [series(3, 1), series(2, 1)]])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_integer_determinant_matches_fraction_reference(self, k):
        for trunc in (0, 1, 9, 24):
            reference = fraction_series_det(
                [[fraction_bessel_I_2x(abs(i - j), trunc) for j in range(k)] for i in range(k)]
            )
            det = series_det(
                [[bessel_I_2x(abs(i - j), trunc) for j in range(k)] for i in range(k)]
            )
            assert all(isinstance(c, int) for c in det)
            assert det == [c * factorial(m) for m, c in enumerate(reference)]
            assert bessel_determinant(k, trunc) == reference

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_determinant_is_even(self, k):
        det = bessel_determinant(k, 9)
        assert len(det) == 10
        assert all(det[p] == 0 for p in range(1, 10, 2))
        assert det[0] == 1
        assert bessel_determinant(k, 0) == [1]


class TestGesselCheck:
    def test_k1(self):
        result = gessel_check(1, 10)
        assert result.passed
        assert "PASS" in result.report()
        for n in range(6):
            assert bessel_determinant(1, 2 * n)[2 * n] == Fraction(1, factorial(n) ** 2)

    def test_k2_matches_catalan(self):
        assert gessel_check(2, 10).passed
        assert bessel_determinant(2, 6)[6] == Fraction(5, 36)
        for n in range(11):
            assert factorial(n) ** 2 * bessel_determinant(2, 2 * n)[2 * n] == catalan(n)

    def test_k3_spot_value(self):
        result = gessel_check(3, 8)
        assert result.passed
        n4 = factorial(4) ** 2 * bessel_determinant(3, 8)[8]
        assert n4 == 23 == brute_count(4, 1, 4)

    @pytest.mark.parametrize("k", [5, 6])
    def test_k5_k6_to_thirty(self, k):
        result = gessel_check(k, 30)
        assert result.passed
        assert result.report().endswith("PASS (all 31 indices agree)")

    def test_failure_reported(self):
        # same counts checked against a determinant one size off
        from seqlab.tableaux import avoiders_count

        det = bessel_determinant(2, 12)
        mismatches = [
            n
            for n in range(7)
            if factorial(n) ** 2 * det[2 * n] != avoiders_count(5, 1, n)
        ]
        assert mismatches  # sanity: k=2 does not count d=5 avoiders

    def test_failure_path(self, monkeypatch, capsys):
        import seqlab.bessel

        original = seqlab.bessel.avoiders_count

        def off_at_seven(d, r, n, start=None):
            return original(d, r, n, start) + (n == 7)

        monkeypatch.setattr(seqlab.bessel, "avoiders_count", off_at_seven)
        result = gessel_check(3, 10)
        assert not result.passed
        assert [n for n, _, _ in result.failures] == [7]
        assert result.report().endswith("FAIL (1 of 11 indices disagree)")
        assert main(["gessel", "--k", "3", "--nmax", "10"]) == 1
        assert capsys.readouterr().out.endswith("FAIL (1 of 11 indices disagree)\n")

    def test_counts_are_one_resumed_pass(self, monkeypatch):
        import seqlab.bessel
        import seqlab.tableaux

        advances, counts = [], []
        advance = seqlab.tableaux.advance_layer
        monkeypatch.setattr(
            seqlab.tableaux, "advance_layer", lambda *a: advances.append(a) or advance(*a)
        )
        count = seqlab.bessel.avoiders_count
        monkeypatch.setattr(
            seqlab.bessel, "avoiders_count", lambda *a: counts.append(a[2]) or count(*a)
        )
        assert gessel_check(5, 30).passed
        # one count per index, each resuming where the one before stopped
        assert counts == list(range(31))
        assert len(advances) == 30
