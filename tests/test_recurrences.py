import logging
import random
from math import factorial, gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import recurrences
from seqlab.recurrences import (
    DEFAULT_MAX_ORDER,
    PRIME_LADDER,
    InsufficientTermsError,
    NonIntegerStepError,
    PRecurrence,
    SingularLeadingCoefficientError,
    extend,
    format_recurrence,
    guess,
    parse_recurrence,
    poly_degree,
    poly_eval,
    poly_trim,
    recurrence_residual,
    search_box,
    verify,
    _kernel_mod,
    _reconstruct,
    _prefix,
    _rows,
)
from seqlab.tableaux import avoiders_sequence

from helpers import catalan, exact_guess, exact_nullspace_basis, list_kernel_mod, window_rows

CATALAN_REC = PRecurrence(((-2, -4), (2, 1)))  # (n+2) a(n+1) = (4n+2) a(n)

P = PRIME_LADDER[0]

ROOT = Path(__file__).resolve().parent.parent

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def reference_terms(name: str) -> list[int]:
    """The terms of a reference file under perfbench/data."""
    lines = (ROOT / "perfbench" / "data" / name).read_text().splitlines()
    return [int(line.split()[1]) for line in lines if line.strip() and line[0] != "#"]


class TestPolyHelpers:
    def test_trim(self):
        assert poly_trim([1, 2, 0, 0]) == (1, 2)
        assert poly_trim([0, 0]) == ()

    @pytest.mark.parametrize("coeff", [2.5, 2.0, "2"])
    def test_trim_rejects_a_coefficient_that_is_no_int(self, coeff):
        # no truncation to 2, for a bare polynomial or a recurrence's
        with pytest.raises(TypeError):
            poly_trim([1, coeff])
        with pytest.raises(TypeError):
            PRecurrence(((-2, -4), (coeff, 1)))

    def test_degree(self):
        assert poly_degree(()) == -1
        assert poly_degree((5,)) == 0
        assert poly_degree((0, 0, 3)) == 2

    def test_eval(self):
        assert poly_eval((2, 4), 10) == 42
        assert poly_eval((), 7) == 0


class TestPRecurrence:
    def test_normalizes_content_and_sign(self):
        rec = PRecurrence(((4, 8), (-4, -2)))  # content 2, negative lead
        assert rec.coeffs == ((-2, -4), (2, 1))
        assert rec.coeffs[-1][-1] > 0

    def test_order_and_degree(self):
        assert CATALAN_REC.order == 1
        assert CATALAN_REC.degree == 1

    def test_rejects_zero_lead(self):
        with pytest.raises(ValueError):
            PRecurrence(((1,), (0,)))

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            PRecurrence(((1,),))


class TestVerify:
    def test_catalan_first_twenty(self):
        assert verify(CATALAN_REC, [catalan(n) for n in range(20)])

    def test_detects_wrong_term(self):
        assert not verify(CATALAN_REC, [1, 1, 2, 5, 15])

    def test_vacuous_on_short_input(self):
        assert verify(CATALAN_REC, [1])
        assert verify(CATALAN_REC, [])

    def test_skips_singular_windows(self):
        # leading coefficient n-1 vanishes at n=1; that window must not count
        rec = PRecurrence(((1, -1), (-1, 1)))
        assert verify(rec, [3, 3, 99])


class TestExtend:
    def test_catalan(self):
        assert extend(CATALAN_REC, [1, 1], 5) == [1, 1, 2, 5, 14, 42]

    def test_constant(self):
        rec = PRecurrence(((-1,), (1,)))
        assert extend(rec, [7], 3) == [7, 7, 7, 7]

    def test_long_seed_is_truncated(self):
        assert extend(CATALAN_REC, [1, 1, 2, 5, 14], 2) == [1, 1, 2]

    def test_singular_leading_coefficient(self):
        rec = PRecurrence(((4, -1), (-4, 1)))  # (n-4)(a(n+1) - a(n)) = 0
        assert extend(rec, [5], 4) == [5, 5, 5, 5, 5]
        with pytest.raises(SingularLeadingCoefficientError):
            extend(rec, [5], 6)

    def test_non_integer_step(self):
        rec = PRecurrence(((-1,), (2,)))  # 2 a(n+1) = a(n)
        with pytest.raises(NonIntegerStepError):
            extend(rec, [1], 3)

    def test_short_seed_rejected(self):
        with pytest.raises(ValueError):
            extend(CATALAN_REC, [], 5)

    @pytest.mark.parametrize("seed", [[1.9], [1, 1.0], [1, "1"]])
    def test_seed_term_that_is_no_int_rejected(self, seed):
        # 1.9 is not seeded as 1, which would give the Catalan numbers
        with pytest.raises(TypeError):
            extend(CATALAN_REC, seed, 6)

    def test_inconsistent_seed_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            extend(CATALAN_REC, [1, 1, 2, 5, 15], 8)

    def test_reextension_verifies(self):
        terms = extend(CATALAN_REC, [1, 1], 40)
        assert verify(CATALAN_REC, terms)


class TestGuess:
    def test_catalan_example(self):
        terms = [catalan(n) for n in range(10)]
        rec = guess(terms, max_order=2, max_degree=2, holdout=3)
        assert rec == CATALAN_REC

    def test_terms_that_are_no_ints_rejected(self):
        # truncated, these floats would be the Catalan numbers above
        terms = [catalan(n) + 0.3 for n in range(10)]
        with pytest.raises(TypeError):
            guess(terms, max_order=2, max_degree=2, holdout=3)

    def test_constant_sequence(self):
        rec = guess([1] * 8)
        assert rec == PRecurrence(((-1,), (1,)))

    def test_factorials(self):
        rec = guess([factorial(n) for n in range(8)], 1, 1, holdout=3)
        assert rec == PRecurrence(((-1, -1), (1,)))

    def test_insufficient_terms(self):
        with pytest.raises(InsufficientTermsError):
            guess([1, 1, 2], holdout=4)

    def test_none_when_nothing_fits(self):
        assert guess(PRIMES, max_order=2, max_degree=2, holdout=4) is None

    def test_holdout_rejects_coincidences(self):
        # terms that satisfy a(n+1)=a(n) early but break inside the holdout
        terms = [1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 7, 11]
        assert guess(terms, max_order=1, max_degree=0, holdout=4) is None

    @pytest.mark.parametrize("holdout", [1, 4])
    def test_held_out_windows_reach_the_last_term(self, caplog, holdout):
        # only the last window reads the bumped last term: a held-out check
        # that starts one window late or stops one window early accepts
        terms = [catalan(n) for n in range(12)]
        assert guess(terms, 1, 1, holdout=holdout) == CATALAN_REC
        caplog.set_level(logging.INFO, logger="seqlab.recurrences")
        assert guess(terms[:-1] + [terms[-1] + 1], 1, 1, holdout=holdout) is None
        assert verdicts(caplog)[-1] == "held-out rejected"

    @given(st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, factor):
        terms = [catalan(n) for n in range(12)]
        scaled = [factor * t for t in terms]
        assert guess(scaled, 2, 2, holdout=4) == guess(terms, 2, 2, holdout=4)

    def test_round_trip_against_engine(self):
        terms = avoiders_sequence(3, 1, 20)
        rec = guess(terms, max_order=2, max_degree=2)
        assert rec is not None
        assert extend(rec, terms[: rec.order], 30) == avoiders_sequence(3, 1, 30)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            guess([1] * 20, max_order=0)
        with pytest.raises(ValueError):
            guess([1] * 20, holdout=0)


class TestSearchBox:
    def test_each_top_is_the_most_the_terms_determine_in_the_box(self):
        for n in range(7, 201):
            for holdout in (None, 1, 4, 20):
                h = max(4, n // 4) if holdout is None else holdout
                if n < h + 3:
                    continue
                # the default degree: order 1's largest determined degree
                default = max(d for d in range(n) if n - h - 1 >= 2 * (d + 1))
                for max_order in range(1, 15):
                    for max_degree in (None, 0, 3, 30):
                        resolved, tops = search_box(n, max_order, max_degree, holdout)
                        assert resolved == h
                        # only the orders whose degree 0 the terms determine
                        assert list(tops) == [o for o in range(1, max_order + 1) if n - h - o >= o + 1]
                        box = default if max_degree is None else max_degree
                        for o, top in tops.items():
                            windows = n - h - o
                            # unknowns grow with the degree, so the top's
                            # windows cover every degree below it
                            assert top >= 0 and windows >= (o + 1) * (top + 1), (n, holdout, o)
                            assert windows < (o + 1) * (top + 2) or top + 1 > box, (n, holdout, o)

    def test_orders_stop_where_the_terms_determine_none(self):
        # 181 terms, 45 held out: 136 - o training windows cover order o's
        # o + 1 unknowns at degree 0 up to o = 67, whatever max_order asks
        holdout, tops = search_box(181, 10**6)
        assert holdout == 45
        assert list(tops) == list(range(1, 68))

    @pytest.mark.parametrize("args, error, message", [
        ((20, 0), ValueError, "need max_order >= 1 and max_degree >= 0"),
        ((20, 1, -1), ValueError, "need max_order >= 1 and max_degree >= 0"),
        ((20, 1, None, 0), ValueError, "holdout must be positive"),
        ((6, 1), InsufficientTermsError, "need at least 7 terms (order 1, degree 0, holdout 4); got 6"),
        ((22, 1, None, 20), InsufficientTermsError, "need at least 23 terms (order 1, degree 0, holdout 20); got 22"),
    ])
    def test_bad_arguments(self, args, error, message):
        with pytest.raises(error) as raised:
            search_box(*args)
        assert str(raised.value) == message


def verdicts(caplog):
    # the per-pair lines only, not the per-order screen lines
    messages = (r.getMessage() for r in caplog.records)
    return [m.rsplit(", ", 1)[1] for m in messages if m.startswith("guess order ")]


# sum_i c_i(n) a(n+i) = 0 with seeds; each lead is nonzero for n >= 0
PLANTED = [
    (CATALAN_REC, [1, 1]),
    (PRecurrence(((-1, -1), (1,))), [1]),  # factorials
    (PRecurrence(((3, 3), (5, 2), (-4, -1))), [1, 1]),  # Motzkin numbers
    (PRecurrence(((1, 3, 3, 1), (-117, -231, -153, -34), (8, 12, 6, 1))), [1, 5]),  # Apery
    (PRecurrence(((3,), (-1, 2), (1, 1), (-1,))), [1, 2, 3]),
]


# the rank-deficient pairs, modulo either of the first two primes, that
# test_screen_agrees_with_each_pairs_own_elimination meets in each source
DEFICIENT_PAIRS = {"3,1": 62, "4,1": 34, "4,2": 16, "random": 0, "1,1+P": 59}


class TestModularScreen:
    @pytest.mark.parametrize("d, r, n_max", [(3, 1, 40), (4, 1, 40), (4, 2, 80)])
    def test_never_rejects_an_exact_solution(self, d, r, n_max):
        terms = avoiders_sequence(d, r, n_max)
        train_len = len(terms) - max(4, len(terms) // 4)
        residues = [t % P for t in terms]
        kept = rejected = 0
        for order in range(1, 5):
            for degree in range(9):
                unknowns = (order + 1) * (degree + 1)
                windows = train_len - order
                if windows < unknowns:
                    continue
                screened = not _kernel_mod(_rows(residues, order, degree, windows), unknowns, P)
                exact = exact_nullspace_basis(window_rows(terms, order, degree, windows), unknowns)
                if exact:
                    assert not screened, (order, degree)
                    kept += 1
                rejected += screened
        assert kept and rejected

    @pytest.mark.parametrize("source", ["3,1", "4,1", "4,2", "random", "1,1+P"])
    def test_screen_agrees_with_each_pairs_own_elimination(self, source):
        terms = {
            "3,1": lambda: avoiders_sequence(3, 1, 40),
            "4,1": lambda: avoiders_sequence(4, 1, 40),
            "4,2": lambda: avoiders_sequence(4, 2, 80),
            "random": lambda rng=random.Random(23): [rng.randrange(10**30) for _ in range(60)],
            "1,1+P": lambda: [1, 1 + P] * 20,
        }[source]()
        # every pair of order <= 5 and degree <= 10 is judged from a prefix
        # of its order's one elimination: the prefix is the pair's own
        # elimination, or both are rank-full (None)
        train_len = len(terms) - max(4, len(terms) // 4)
        deficient = 0
        for p in PRIME_LADDER[:2]:
            residues = [t % p for t in terms]
            for order in range(1, 6):
                windows = train_len - order
                top = min(10, windows // (order + 1) - 1)
                elimination = _kernel_mod(_rows(residues, order, top, windows), (order + 1) * (top + 1), p)
                for degree in range(top + 1):
                    ncols = (order + 1) * (degree + 1)
                    own = _kernel_mod(_rows(residues, order, degree, windows), ncols, p)
                    assert _prefix(elimination, ncols) == own, (p, order, degree)
                    deficient += own is not None
        assert deficient == DEFICIENT_PAIRS[source]

    def test_one_elimination_per_order_on_the_default_box(self, monkeypatch):
        # the (5,2) recurrence extended to 181 terms: every order the default
        # box reaches is rank-full up to its largest determined degree
        rec = parse_recurrence((ROOT / "survey" / "d5_r2.rec").read_text())
        terms = extend(rec, reference_terms("d5_r2.txt")[: rec.order], 180)
        widths = []
        original = recurrences._kernel_mod
        monkeypatch.setattr(
            recurrences, "_kernel_mod", lambda rows, ncols, p: widths.append(ncols) or original(rows, ncols, p)
        )
        assert guess(terms) is None
        assert len(widths) == DEFAULT_MAX_ORDER
        # orders 1-4 at degrees 66, 43, 32 and 25
        assert widths == [134, 132, 132, 130]
        # an accepted pair is judged from a prefix of its order's elimination,
        # with no elimination of its own: (6,16) in the box (6,16) ...
        widths.clear()
        assert guess(terms, 6, 16, holdout=20) == rec
        assert widths == [34, 51, 68, 85, 102, 119]
        # ... and discover-r2's (4,7) in the box (4,8)
        widths.clear()
        expected = (ROOT / "perfbench" / "data" / "d4_r2.rec").read_text()
        assert format_recurrence(guess(reference_terms("d4_r2.txt")[:81], 4, 8)) == expected
        assert widths == [18, 27, 36, 45]

    @given(
        st.lists(st.lists(st.integers(0, 6), min_size=6, max_size=6), min_size=1, max_size=9),
        st.sampled_from([2, 3, 7]),
    )
    @settings(max_examples=300, deadline=None)
    def test_prefix_is_the_elimination_of_the_first_columns(self, rows, p):
        # small primes make a row whose first columns reduce to zero come
        # before one that is kept, so the dropped row's multipliers matter
        elimination = _kernel_mod(rows, 6, p)
        for ncols in range(1, 7):
            assert _prefix(elimination, ncols) == _kernel_mod([row[:ncols] for row in rows], ncols, p)

    def test_multiples_of_p_leave_the_exact_search_to_decide(self, monkeypatch, caplog):
        catalans = [P * catalan(n) for n in range(20)]
        assert guess(catalans, 2, 2, holdout=4) == CATALAN_REC
        primes = [P * q for q in PRIMES]
        assert guess(primes, 2, 2, holdout=4) is None
        assert guess(primes, 2, 2, holdout=4) == exact_guess(primes, 2, 2, holdout=4)
        # P is unlucky for every pair: each order's three pairs build its top
        # system's two rungs once, rung 0 logged as the order's one screen
        eliminated = []
        original = recurrences._kernel_mod
        monkeypatch.setattr(
            recurrences, "_kernel_mod", lambda rows, ncols, p: eliminated.append((ncols, p)) or original(rows, ncols, p)
        )
        caplog.set_level(logging.INFO, logger="seqlab.recurrences")
        assert guess(primes, 2, 2, holdout=4) is None
        assert sorted(eliminated) == [(6, P), (6, PRIME_LADDER[1]), (9, P), (9, PRIME_LADDER[1])]
        screens = [r.getMessage().split()[3] for r in caplog.records if r.getMessage().startswith("guess screen: ")]
        assert screens == ["1", "2"]
        caplog.clear()
        # every system is zero modulo P: that prime alone proves no rank
        monkeypatch.setattr(recurrences, "PRIME_LADDER", (P,))
        caplog.set_level(logging.INFO, logger="seqlab.recurrences")
        assert guess(primes, 2, 2, holdout=4) is None
        assert "rank-full mod p" not in verdicts(caplog)

    @pytest.mark.parametrize("box", [(1, 1), (2, 2), (3, 3), (3, 4)])
    def test_same_answer_as_the_exact_search(self, box):
        grid = [extend(rec, seed, 29) for rec, seed in PLANTED]
        grid += [PRIMES, avoiders_sequence(3, 1, 29), avoiders_sequence(4, 1, 29)]
        for terms in grid:
            assert guess(terms, *box) == exact_guess(terms, *box)
        assert guess(grid[3], 2, 3) == PLANTED[3][0]

    @pytest.mark.parametrize(
        "terms, box, verdict",
        [
            (PRIMES, (1, 0), "rank-full mod p"),
            # (1, -1) spans the kernel mod P and fails exactly; 2^127 - 1 decides
            ([1, 1 + P] * 6, (1, 0), "rank-full mod p"),
            ([0] * 7 + [1] + [0] * 4, (1, 0), "zero leading polynomial"),
            ([1] * 9 + [5, 7, 11], (1, 0), "held-out rejected"),
            ([catalan(n) for n in range(12)], (1, 1), "accepted"),
        ],
    )
    def test_pair_verdicts_logged(self, caplog, terms, box, verdict):
        caplog.set_level(logging.INFO, logger="seqlab.recurrences")
        guess(terms, *box, holdout=4)
        assert verdicts(caplog)[-1] == verdict

    def test_undecided_when_the_ladder_runs_out(self, monkeypatch, caplog):
        monkeypatch.setattr(recurrences, "PRIME_LADDER", (P,))
        caplog.set_level(logging.INFO, logger="seqlab.recurrences")
        assert guess([1, 1 + P] * 6, 1, 0, holdout=4) is None
        assert verdicts(caplog) == ["undecided"]

    @given(st.lists(st.integers(2**64, 2**80), min_size=4, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_planted_coefficients_past_one_prime(self, c):
        # a(n+2) = c0(n) a(n) + c1(n) a(n+1) with positive coefficients above
        # 2^64, so the terms grow and the kernel vector, past the
        # reconstruction bound of 2^61 - 1, is lifted from that prime
        planted = PRecurrence(((c[0], c[1]), (c[2], c[3]), (-1,)))
        terms = extend(planted, [1, 1], 29)
        found = guess(terms, 2, 1)
        assert found == exact_guess(terms, 2, 1)
        assert found == planted

    @given(st.lists(st.integers(2**1300, 2**1400), min_size=4, max_size=4))
    @settings(max_examples=5, deadline=None)
    def test_planted_coefficients_past_four_rungs(self, c):
        # coefficients of 1300-1400 bits, past the reconstruction bound
        # isqrt(p // 2) of every rung up to 2^2203 - 1, so the lift from
        # 2^61 - 1 runs for dozens of steps
        planted = PRecurrence(((c[0], c[1]), (c[2], c[3]), (-1,)))
        terms = extend(planted, [1, 1], 29)
        found = guess(terms, 2, 1)
        assert found == exact_guess(terms, 2, 1)
        assert found == planted

    @pytest.mark.parametrize("digits, degree", [(1400, 0), (1500, 0), (3000, 0), (1500, 1)])
    def test_lift_has_no_size_cliff(self, digits, degree):
        # reconstruction needs a modulus past twice the coefficients'
        # height squared: from 1500 digits on, past the top rung 2^9689 - 1
        # (2917 digits), so the lift from 2^61 - 1 runs until it is found
        c = 10**digits + 7
        if degree:
            terms = [c**n * factorial(n) for n in range(14)]
            expected = PRecurrence(((c, c), (-1,)))  # a(n+1) = c (n+1) a(n)
        else:
            terms = [c**n for n in range(12)]
            expected = PRecurrence(((-c,), (1,)))  # a(n+1) = c a(n)
        assert guess(terms, 1, degree, holdout=4) == expected


def rank_limited_rows(rng, nrows: int, ncols: int, rank: int) -> list[list[int]]:
    """``nrows`` rows of signed 40-digit entries, combinations of ``rank``
    random rows, about one in five of them zero."""
    basis = [[rng.randrange(-(10**40), 10**40) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        weights = [rng.randrange(-5, 6) for _ in basis] if rng.random() > 0.2 else [0] * rank
        rows.append([sum(w * b[j] for w, b in zip(weights, basis)) for j in range(ncols)])
    return rows


def widest_fields_rows(ncols: int, p: int) -> list[list[int]]:
    """Rows with ncols - 1 pivots whose unit tails are p - 1 past their lead,
    each met with multiplier 1, then the last of them again, which reduces
    to zero through all of them: every update adds (p - 1)^2, the most one
    can, and the last column of the last row takes ncols - 1 of them."""
    units = [[0] * k + [1] + [p - 1] * (ncols - 1 - k) for k in range(ncols - 1)]
    rows = [[sum(column) % p for column in zip(*units[: k + 1])] for k in range(ncols - 1)]
    return rows + [rows[-1][:]]


class TestPackedKernel:
    # the packed rows against list_kernel_mod, the same elimination on rows
    # held as lists: equal records, or None for both
    @pytest.mark.parametrize("p", PRIME_LADDER[:3], ids=lambda p: f"2^{p.bit_length()}-1")
    @pytest.mark.parametrize("ncols", [1, 2, 7, 16])
    def test_random_rows(self, p, ncols):
        rng = random.Random(ncols * 1000 + p.bit_length())
        for rank in sorted({0, 1, ncols // 2, ncols - 1, ncols}):
            for nrows in (0, rank, rank + 3, 2 * ncols + 1):
                rows = rank_limited_rows(rng, nrows, ncols, rank)
                assert _kernel_mod(rows, ncols, p) == list_kernel_mod(rows, ncols, p), (rank, nrows)

    @pytest.mark.parametrize("p", PRIME_LADDER[:3], ids=lambda p: f"2^{p.bit_length()}-1")
    @pytest.mark.parametrize("ncols", [1, 2, 7, 16])
    def test_zero_rows(self, p, ncols):
        rows = [[0] * ncols, [p] * ncols, [0] * ncols]
        assert _kernel_mod(rows, ncols, p) == list_kernel_mod(rows, ncols, p) == ([], list(range(ncols)))

    @pytest.mark.parametrize("p", PRIME_LADDER[:3], ids=lambda p: f"2^{p.bit_length()}-1")
    @pytest.mark.parametrize("ncols", [2, 7, 16, 40])
    def test_fields_at_their_bound(self, p, ncols):
        rows = widest_fields_rows(ncols, p)
        elimination = _kernel_mod(rows, ncols, p)
        assert elimination == list_kernel_mod(rows, ncols, p)
        pivots, free = elimination
        assert free == [ncols - 1]
        assert [multipliers for *_, multipliers, _ in pivots] == [[1] * k for k in range(ncols - 1)]
        assert all(tail[1:] == [p - 1] * (ncols - 1 - lead) for lead, tail, *_ in pivots)
        # one more unit at the last column gives full rank
        rows[-1][-1] += 1
        assert _kernel_mod(rows, ncols, p) is list_kernel_mod(rows, ncols, p) is None


class TestReconstruct:
    def test_only_the_accepted_reconstruction_is_checked(self, monkeypatch):
        # discover-r2's pair: the lift reconstructs after 1, 2, 4, ... steps,
        # and every attempt before the one that holds ends at the bound
        results = []
        original = recurrences._reconstruct

        def spy(*args):
            results.append(original(*args))
            return results[-1]

        monkeypatch.setattr(recurrences, "_reconstruct", spy)
        rec = guess(avoiders_sequence(4, 2, 80), 4, 7)
        assert (rec.order, rec.degree) == (4, 7)
        assert len(results) > 1
        assert [vec is not None for vec in results] == [False] * (len(results) - 1) + [True]

    @given(
        st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=8).filter(any),
        st.integers(1, 10**30).filter(lambda d: d % P),
    )
    @settings(max_examples=200, deadline=None)
    def test_recovers_the_vector_past_twice_its_height_squared(self, w, d):
        height = max(*map(abs, w), d)
        modulus = P
        while modulus <= 2 * height**2:
            modulus *= P
        vec = [x * pow(d, -1, modulus) % modulus for x in w]
        content = gcd(*w)
        assert _reconstruct(vec, modulus) == [x // content for x in w]

    def test_an_early_attempt_ends_at_the_bound(self):
        # 1/b1 and 1/b2 each fit the bound 2^30 - 1, their common denominator
        # b1 * b2 does not
        b1, b2 = 2**30 - 1, 2**30 - 3
        assert isqrt(P // 2) == b1
        assert _reconstruct([pow(b1, -1, P), pow(b2, -1, P)], P) is None
        assert _reconstruct([pow(b1, -1, P), 1], P) == [1, b1]


class TestSurveyRecurrence:
    def test_d5_r2_generates_the_reference_terms(self):
        # guessed from terms 0..180 with 20 held out; checked here against
        # the independently stored reference terms 0..85
        rec = parse_recurrence((ROOT / "survey" / "d5_r2.rec").read_text())
        terms = reference_terms("d5_r2.txt")
        assert (rec.order, rec.degree, len(terms)) == (6, 16, 86)
        assert all(
            recurrence_residual(rec, terms, n) == 0 for n in range(len(terms) - rec.order)
        )
        assert extend(rec, terms[: rec.order], len(terms) - 1) == terms


class TestBenchmarkGuesses:
    @pytest.mark.parametrize("k", range(4))
    def test_same_recurrence_and_no_recurrence_at_every_shift(self, k):
        # the guesses of the discover-r2 and hard-r2 workloads at seed k
        d4 = reference_terms("d4_r2.txt")
        expected = (ROOT / "perfbench" / "data" / "d4_r2.rec").read_text()
        assert format_recurrence(guess(d4[: 81 - k], 4, 8)) == expected
        assert guess(reference_terms("d5_r2.txt")[: 45 - k], 5, 10) is None


class TestTextFormat:
    def test_exact_text(self):
        assert format_recurrence(CATALAN_REC) == (
            "ORDER 1 DEGREE 1 OFFSET 0\n-2 -4\n2 1\n"
        )

    def test_round_trip(self):
        for rec in (
            CATALAN_REC,
            PRecurrence(((-1,), (1,))),
            PRecurrence(((0, 3), (1, 0, 2), (5,)), offset=2),
        ):
            assert parse_recurrence(format_recurrence(rec)) == rec

    def test_round_trip_is_bit_exact(self):
        text = format_recurrence(CATALAN_REC)
        assert format_recurrence(parse_recurrence(text)) == text

    def test_round_trip_past_the_digit_limit(self):
        # a 4301-digit coefficient: past Python's 4300-digit int <-> str limit
        rec = PRecurrence(((-(10**4300), 3), (1,)))
        text = format_recurrence(rec)
        assert len(text.splitlines()[1]) == len("-") + 4301 + len(" 3")
        assert parse_recurrence(text) == rec
        assert format_recurrence(parse_recurrence(text)) == text

    @pytest.mark.parametrize("text", [
        "ORDER 1 DEGREE 0 OFFSET 1_000\n1\n1\n",
        "ORDER \u0661 DEGREE 0 OFFSET 0\n1\n1\n",
        "ORDER 1 DEGREE 0 OFFSET 0\n1_000\n1\n",
        "ORDER 1 DEGREE 0 OFFSET 0\n1\n\u0661\n",
    ], ids=["header-underscore", "header-arabic-indic", "coeff-underscore", "coeff-arabic-indic"])
    def test_parse_rejects_damage(self, text):
        # int() alone reads every one of these
        with pytest.raises(ValueError, match="not a decimal integer"):
            parse_recurrence(text)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_recurrence("")
        with pytest.raises(ValueError):
            parse_recurrence("ORDER 1 DEGREE 1\n1 1\n1 1\n")
        with pytest.raises(ValueError):
            parse_recurrence("ORDER 2 DEGREE 0 OFFSET 0\n1\n1\n")
        with pytest.raises(ValueError):
            parse_recurrence("ORDER 1 DEGREE 1 OFFSET 0\n1 1\n1\n")
