import decimal
import math
from fractions import Fraction

import pytest

import seqlab.growth
from seqlab.growth import (
    GrowthParams,
    conjectured_params,
    empirical_growth,
    estimate_constant,
)
from seqlab.recurrences import InsufficientTermsError
from seqlab.tableaux import avoiders_sequence

from helpers import catalan, richardson_extrapolate

INV_SQRT_PI = 1 / math.sqrt(math.pi)


class TestConjecturedParams:
    def test_permutation_point(self):
        assert conjectured_params(3, 1) == GrowthParams(4, Fraction(3, 2))

    def test_degenerate_row(self):
        for r in range(1, 6):
            assert conjectured_params(2, r) == GrowthParams(1, Fraction(0))

    def test_example_point(self):
        assert conjectured_params(4, 2) == GrowthParams(54, Fraction(4))

    def test_reduces_to_square_base_for_single_copies(self):
        for d in range(2, 7):
            params = conjectured_params(d, 1)
            assert params.mu == (d - 1) ** 2
            assert params.alpha == Fraction((d - 1) ** 2 - 1, 2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            conjectured_params(1, 1)
        with pytest.raises(ValueError):
            conjectured_params(3, 0)


class TestEmpiricalGrowth:
    def test_pure_exponential(self):
        mu, alpha = empirical_growth([4**n for n in range(40)])
        assert abs(mu - 4) < 1e-6
        assert abs(alpha) < 1e-6

    def test_constant_sequence(self):
        mu, alpha = empirical_growth([1] * 20)
        assert abs(mu - 1) < 1e-9
        assert abs(alpha) < 1e-9

    def test_catalan_to_300(self):
        terms = [catalan(n) for n in range(301)]
        mu, alpha = empirical_growth(terms)
        assert abs(mu - 4) / 4 < 0.005
        assert abs(alpha - 1.5) / 1.5 < 0.05

    def test_needs_sixteen_terms(self):
        with pytest.raises(InsufficientTermsError):
            empirical_growth([2**n for n in range(15)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            empirical_growth([1] * 15 + [0])

    def test_terms_above_str_digit_limit(self):
        # past 4300 digits, int -> str raises unless the limit is lifted
        terms = [10 ** (4400 + n) for n in range(20)]
        assert terms[0].bit_length() > 4300 * math.log2(10)
        mu, alpha = empirical_growth(terms)
        assert abs(mu - 10) < 1e-6
        assert abs(alpha) < 1e-6

    def test_power_law_factor(self):
        # a(n) = 54^n n^4 is exactly the model with alpha = -4
        terms = [1] + [54**n * n**4 for n in range(1, 60)]
        mu, alpha = empirical_growth(terms)
        assert abs(mu - 54) < 1e-9
        assert abs(alpha + 4) < 1e-9


class TestRichardsonExtrapolate:
    def test_recovers_constant_plus_inverse_exactly(self):
        # c(x) = C (1 + 1/x) is degree 1 in 1/x: level 1 is already exact
        C = Fraction(56419, 100000)
        for xs in [(10, 18), (10, 18, 26), (7, 15, 23, 31)]:
            samples = [(x, C * (1 + Fraction(1, x))) for x in xs]
            assert richardson_extrapolate(samples) == C

    def test_float_samples_within_roundoff(self):
        C = 0.5641895835
        samples = [(x, C * (1 + 1 / x)) for x in (16, 24, 32)]
        got = float(richardson_extrapolate([(x, Fraction(v)) for x, v in samples]))
        assert abs(got - C) / C < 1e-9

    def test_rejects_repeated_points(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([(3, Fraction(1)), (3, Fraction(2))])


class TestEstimateConstant:
    def test_catalan_ladder(self):
        terms = [catalan(n) for n in range(301)]
        estimate = estimate_constant(terms, conjectured_params(3, 1), levels=3)
        top = estimate.estimates[-1]
        assert abs(top - INV_SQRT_PI) / INV_SQRT_PI < 0.02

    def test_catalan_levels_improve_monotonically(self):
        terms = [catalan(n) for n in range(301)]
        estimate = estimate_constant(terms, conjectured_params(3, 1), levels=3)
        errors = [abs(v - INV_SQRT_PI) for v in estimate.estimates]
        assert errors == sorted(errors, reverse=True)
        assert errors[0] > 10 * errors[1] > 0

    def test_synthetic_floor_sequence(self):
        terms = [7 * 5**n // max(n, 1) for n in range(40)]
        estimate = estimate_constant(
            terms, GrowthParams(5, Fraction(1)), levels=2, stride=4
        )
        assert abs(estimate.estimates[-1] - 7) / 7 < 0.01

    def test_all_ones_exact_at_every_level(self):
        estimate = estimate_constant([1] * 40, GrowthParams(1, Fraction(0)), levels=3)
        assert all(v == 1.0 for v in estimate.estimates)
        for row in estimate.rows:
            assert all(v == 1.0 for v in row[1:] if v is not None)

    def test_insufficient_terms_for_levels(self):
        with pytest.raises(InsufficientTermsError):
            estimate_constant(
                [2**n for n in range(10)], GrowthParams(2, Fraction(0)), levels=3
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            estimate_constant([0] * 40, GrowthParams(1, Fraction(0)))

    def test_terms_above_str_digit_limit(self):
        mu = 10**1000
        terms = [3 * mu**n for n in range(6)]  # the last has 5001 digits
        assert terms[-1].bit_length() > 4300 * math.log2(10)
        estimate = estimate_constant(
            terms, GrowthParams(mu, Fraction(0)), levels=2, stride=2
        )
        assert all(abs(v - 3) < 1e-9 for v in estimate.estimates)

    @pytest.mark.parametrize(
        "count, levels, stride, cells",
        [
            (371, 3, 8, 370 + 362 + 354 + 346),
            # ten levels at stride 1 amplify rounding by about 2^100
            (401, 10, 1, sum(400 - k for k in range(11))),
        ],
        ids=["default-ladder", "deep-ladder"],
    )
    def test_ladder_matches_exact_ladder(self, count, levels, stride, cells):
        # Reference: c_n = a(n) n^1.5 / 4^n to K bits by integer square
        # root, then an exact ladder over Fractions. A ladder fed float c_n
        # is off by up to 6e-12 here.
        terms = [catalan(n) for n in range(count)]
        params = conjectured_params(3, 1)
        estimate = estimate_constant(terms, params, levels=levels, stride=stride)
        K = 256
        c = {
            n: Fraction(math.isqrt(terms[n] ** 2 * n**3 << 2 * K), 4**n << K)
            for n in range(1, count)
        }
        checked = 0
        for row in estimate.rows:
            n = row[0]
            for k, got in enumerate(row[1:]):
                if got is None:
                    continue
                pts = [(n + j * stride, c[n + j * stride]) for j in range(k + 1)]
                exact = richardson_extrapolate(pts)
                assert abs(Fraction(got) - exact) <= exact * Fraction(1, 10**14), (n, k)
                checked += 1
        assert checked == cells

    def test_fit_and_ladder_take_no_decimal_logarithm(self, monkeypatch):
        # The fit takes math.log of 25,000-bit terms directly, and the
        # constant's ladder takes no logs at all.
        mu = 2**1000
        terms = [3 * mu**n for n in range(26)]
        assert terms[20].bit_length() >= 20_000
        precs = []

        class RecordingDecimal(decimal.Decimal):
            def ln(self, context=None):
                precs.append(decimal.getcontext().prec)
                return super().ln(context)

        monkeypatch.setattr(seqlab.growth, "Decimal", RecordingDecimal)
        mu_hat, _ = empirical_growth(terms)
        estimate = estimate_constant(terms, GrowthParams(mu, Fraction(0)))
        assert precs == []
        assert abs(mu_hat / mu - 1) < 1e-9
        assert all(abs(v - 3) < 1e-12 for v in estimate.estimates)

    def test_report_row_counts(self):
        terms = [catalan(n) for n in range(41)]
        estimate = estimate_constant(terms, conjectured_params(3, 1), levels=3)
        assert len(estimate.report(max_rows=0).splitlines()) == 3
        assert len(estimate.report(max_rows=100).splitlines()) == 40 + 3
        assert len(estimate.report().splitlines()) == 40 + 3
        with pytest.raises(ValueError, match="non-negative"):
            estimate.report(max_rows=-3)

    def test_report_is_renderable(self):
        terms = avoiders_sequence(3, 1, 60)
        estimate = estimate_constant(terms, conjectured_params(3, 1), levels=2)
        text = estimate.report(max_rows=8)
        assert "c_n" in text and "level2" in text
        assert "working assumption" in text
        assert len(text.splitlines()) == 8 + 3  # header + rows + two footers
