"""Command-line front end: compute, cross-check, guess, extend, and look up
avoider-count sequences.

Exit codes: 0 success, 1 failed check or runtime error, 2 usage error.
Only ``seq`` (and ``extend --store``, which writes no layer checkpoint)
writes the cache; everything else reads it at most, and may resume the DP
from a checkpoint there. All integers are printed as exact decimal strings.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .growth import conjectured_params, empirical_growth, estimate_constant
from .bessel import gessel_check
from .oeis import OeisError, oeis_lookup
from .oracle import brute_count, total_words
from .recurrences import (
    DEFAULT_MAX_ORDER,
    extend,
    format_recurrence,
    guess,
    parse_recurrence,
    search_box,
)
from .storage import (
    PROVENANCE_EXTENDED,
    CacheError,
    SequenceRecord,
    cache_load,
    cache_store,
    format_bfile,
    int_to_text,
    layer_load,
    text_to_int,
)
from .tableaux import Checkpoint, avoiders_count, avoiders_sequence

FORMATS = ("plain", "bfile", "csv")

# --stats lines are INFO records, here and in submodules; main() shows them
log = logging.getLogger("seqlab")


def _emit_terms(terms, fmt: str) -> None:
    if fmt == "bfile":
        sys.stdout.writelines(format_bfile(terms))
    elif fmt == "csv":
        for n, value in enumerate(terms):
            print(f"{n},{int_to_text(value)}")
    else:
        for value in terms:
            print(int_to_text(value))


def integer(text: str) -> int:
    """An integer option's value, read by ``text_to_int``: ASCII decimal
    digits with an optional sign, at any length. argparse names this
    function in its usage error: ``invalid integer value: '1_0'``."""
    return text_to_int(text)


class _StatsFormatter(logging.Formatter):
    # warnings, such as the cache's keep-longest notice, keep their bare text
    def format(self, record: logging.LogRecord) -> str:
        text = super().format(record)
        return f"stats: {text}" if record.levelno == logging.INFO else text


def _check_nmax(nmax: int) -> None:
    if nmax < 0:
        raise ValueError(f"need nmax >= 0, got {nmax}")


def _cached_or_computed(args, n_max: int, store: bool = False) -> list[int]:
    """Terms 0..n_max at least for (args.d, args.r): the whole cached record
    when it covers them, with no DP work. Otherwise the DP resumes from the
    layer checkpoint stored beside a shorter record, which ``layer_load``
    validates first, so only the layers past it are computed; with no
    checkpoint it starts at layer 0. With ``store`` the terms are stored
    with the last layer as the next checkpoint: a header and one line per
    slice, for instance 2 lines for (3,1) at any n and 354 for (5,2) at
    n = 44. Logs for --stats the layers computed and where they
    started. Rejects a negative --nmax before reading the cache, so no
    command's verdict on it depends on what is cached."""
    _check_nmax(args.nmax)
    record = cache_load(args.d, args.r, args.cache_dir)
    if record is not None and len(record.terms) > n_max:
        log.info("dp layers computed = 0 (cache hit)")
        return list(record.terms)
    layer = None if record is None else layer_load(record, args.cache_dir)
    if layer is None:
        layer = Checkpoint(args.d, args.r)
        log.info("dp layers computed = %d", n_max)
    else:
        log.info("dp layers computed = %d (resumed from layer %d)", n_max - layer.n, layer.n)
    known = (1,) if record is None else record.terms[: layer.n + 1]
    terms = [*known, *avoiders_sequence(args.d, args.r, n_max, layer)]
    if store:
        cache_store(SequenceRecord(d=args.d, r=args.r, terms=tuple(terms)), args.cache_dir, layer)
    return terms


def _extended(args) -> list[int]:
    """Terms 0..args.nmax by the recurrence file ``args.rec``, seeded with
    the whole cached record when it holds the recurrence's initial terms, so
    extension verifies every cached term, otherwise just those, computed."""
    rec = parse_recurrence(Path(args.rec).read_text())
    seed = _cached_or_computed(args, max(rec.order + rec.offset, 1) - 1)
    return extend(rec, seed, args.nmax)


def cmd_seq(args) -> int:
    terms = _cached_or_computed(args, args.nmax, store=True)[: args.nmax + 1]
    _emit_terms(terms, args.format)
    return 0


def cmd_count(args) -> int:
    print(int_to_text(avoiders_count(args.d, args.r, args.n)))
    return 0


def cmd_oracle(args) -> int:
    print(int_to_text(brute_count(args.d, args.r, args.n, budget=args.budget)))
    return 0


def cmd_check(args) -> int:
    if args.d < 2 or args.r < 1 or args.nmax < 0:
        raise ValueError("need d >= 2, r >= 1 and nmax >= 0")
    totals = [total_words(args.r, n) for n in range(args.nmax + 1)]
    # word counts grow with n, so the indices inside the budget are a prefix
    # and one DP pass gives the formula side of all of them
    inside = sum(total <= args.budget for total in totals)
    if not inside:
        raise ValueError(f"budget {args.budget} admits no index, so nothing would be checked")
    formulas = avoiders_sequence(args.d, args.r, inside - 1)
    failures = 0
    for n, formula in enumerate(formulas):
        oracle = brute_count(args.d, args.r, n, budget=None)
        failures += formula != oracle
        print(f"n={n}: formula={int_to_text(formula)} oracle={int_to_text(oracle)} {'ok' if formula == oracle else 'MISMATCH'}")
    for n in range(inside, len(totals)):
        print(f"n={n}: skipped ({int_to_text(totals[n])} words exceed budget {args.budget})")
    verdict = "PASS" if not failures else "FAIL"
    print(f"{verdict} (d={args.d}, r={args.r}, n<={args.nmax}, skipped={len(totals) - inside})")
    return 0 if not failures else 1


def cmd_guess(args) -> int:
    # the box is checked before any DP: terms 0..nmax are nmax + 1 terms
    _check_nmax(args.nmax)
    _, tops = search_box(args.nmax + 1, args.max_order, args.max_degree, args.holdout)
    terms = _cached_or_computed(args, args.nmax)[: args.nmax + 1]
    rec = guess(terms, args.max_order, args.max_degree, args.holdout)
    if rec is None:
        max_degree = tops[1] if args.max_degree is None else args.max_degree
        # the terms may determine the top order's systems only to a lower degree
        top = tops.get(args.max_order, -1)
        reach = "" if top >= max_degree else f"order {args.max_order} searched only to degree {top}, the most the terms determine; "
        if top < 0:
            reach = f"order {args.max_order} not searched, the terms determine none of its degrees; "
        print(
            f"no recurrence found within order {args.max_order}, degree "
            f"{max_degree} ({reach}not a disproof; try more terms or wider bounds)"
        )
        return 1
    text = format_recurrence(rec)
    if args.out:
        Path(args.out).write_text(text)
        print(f"recurrence (order {rec.order}, degree {rec.degree}) written to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_extend(args) -> int:
    terms = _extended(args)
    if args.store:
        cache_store(
            SequenceRecord(
                d=args.d,
                r=args.r,
                terms=tuple(terms),
                provenance=PROVENANCE_EXTENDED,
            ),
            args.cache_dir,
        )
    _emit_terms(terms, args.format)
    return 0


def cmd_asym(args) -> int:
    terms = _extended(args) if args.rec else _cached_or_computed(args, args.nmax)[: args.nmax + 1]
    params = conjectured_params(args.d, args.r)
    lines = [
        f"terms used: 0..{len(terms) - 1}",
        f"conjectured growth base mu = {params.mu}",
        f"conjectured decay exponent alpha = {params.alpha}",
    ]
    if len(terms) >= 16:
        mu_hat, alpha_hat = empirical_growth(terms)
        lines += [f"empirical base  ~ {mu_hat:.6f}", f"empirical decay ~ {alpha_hat:.4f}"]
    else:
        lines.append("empirical fit skipped (needs at least 16 terms)")
    estimate = estimate_constant(terms, params, levels=args.levels, stride=args.stride)
    # the report checks --rows: every bad argument is caught before any output
    lines.append(estimate.report(max_rows=args.rows))
    print("\n".join(lines))
    return 0


def cmd_gessel(args) -> int:
    result = gessel_check(args.k, args.nmax)
    print(result.report())
    return 0 if result.passed else 1


def cmd_oeis(args) -> int:
    if args.terms:
        terms = [text_to_int(tok) for tok in args.terms.replace(",", " ").split()]
    elif args.d is not None and args.r is not None:
        terms = _cached_or_computed(args, args.nmax)[: args.nmax + 1]
    else:
        raise ValueError("give --terms, or --d/--r/--nmax to compute the query")
    matches = oeis_lookup(terms, mode=args.mode, dump_path=args.dump)
    if not matches:
        print("no matches")
        return 0
    for match in matches:
        name = f" {match.name}" if match.name else ""
        print(f"{match.identifier} offset={match.offset}{name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description=(
            "Exact counts of words over {1..n} (r copies of each letter) that "
            "contain no strictly increasing subsequence of length d, plus the "
            "experimental toolkit around them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument("--cache-dir", default=None, help="cache directory (default: $SEQLAB_CACHE or ./.seqlab)")
    cache_flags.add_argument("--stats", action="store_true", help="report DP layers computed, and each order guess screens and each pair it tries, on stderr")

    fmt_flags = argparse.ArgumentParser(add_help=False)
    fmt_flags.add_argument("--format", choices=FORMATS, default="plain", help="output format (default plain: one value per line)")

    key_flags = argparse.ArgumentParser(add_help=False)
    key_flags.add_argument("--d", type=integer, required=True)
    key_flags.add_argument("--r", type=integer, required=True)
    key_flags.add_argument("--nmax", type=integer, required=True)

    term_flags = argparse.ArgumentParser(add_help=False)
    term_flags.add_argument("--d", type=integer, required=True)
    term_flags.add_argument("--r", type=integer, required=True)
    term_flags.add_argument("--n", type=integer, required=True)

    p = sub.add_parser("seq", parents=[cache_flags, fmt_flags, key_flags], help="compute and cache terms 0..nmax")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("count", parents=[term_flags], help="one exact term")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("oracle", parents=[term_flags], help="one term by brute-force enumeration")
    p.add_argument("--budget", type=integer, default=10**6, help="word-count budget before warning")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", parents=[key_flags], help="formula vs brute force for n = 0..nmax")
    p.add_argument("--budget", type=integer, default=10**6, help="skip n whose word count exceeds this")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("guess", parents=[cache_flags, key_flags], help="guess a recurrence from terms 0..nmax")
    p.add_argument("--max-order", type=integer, default=DEFAULT_MAX_ORDER)
    p.add_argument("--max-degree", type=integer, default=None, help="default: every degree whose order-1 system is determined by the terms")
    p.add_argument("--holdout", type=integer, default=None, help="terms withheld for validation (default: quarter, min 4)")
    p.add_argument("--out", default=None, help="write the recurrence to this file instead of stdout")
    p.set_defaults(func=cmd_guess)

    p = sub.add_parser("extend", parents=[cache_flags, fmt_flags, key_flags], help="extend a sequence with a recurrence file")
    p.add_argument("--rec", required=True, help="recurrence file (format of 'guess')")
    p.add_argument("--store", action="store_true", help="store the extension in the cache")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("asym", parents=[cache_flags, key_flags], help="growth report: conjectured vs fitted parameters, constant ladder")
    p.add_argument("--rec", default=None, help="optional recurrence file to reach nmax by extension")
    p.add_argument("--levels", type=integer, default=3)
    p.add_argument("--stride", type=integer, default=8)
    p.add_argument("--rows", type=integer, default=16, help="table rows to print (tail)")
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("gessel", help="check the Bessel determinant identity against the counts")
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--nmax", type=integer, required=True)
    p.set_defaults(func=cmd_gessel)

    p = sub.add_parser("oeis", parents=[cache_flags], help="look terms up in the OEIS")
    p.add_argument("--terms", default=None, help="comma- or space-separated query terms")
    p.add_argument("--d", type=integer, default=None)
    p.add_argument("--r", type=integer, default=None)
    p.add_argument("--nmax", type=integer, default=8)
    p.add_argument("--mode", choices=("remote", "local"), default="remote")
    p.add_argument("--dump", default=None, help="path to a 'stripped'-format dump (local mode)")
    p.set_defaults(func=cmd_oeis)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_StatsFormatter())
    saved_level = log.level
    if getattr(args, "stats", False):
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, CacheError, OeisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(saved_level)


if __name__ == "__main__":
    sys.exit(main())
