import json
import os
import re
import threading
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from math import comb, factorial
from pathlib import Path

import pytest

from seqlab.cli import main
from seqlab.recurrences import format_recurrence, guess, parse_recurrence, verify
from seqlab.storage import CacheError, SequenceRecord, cache_load, cache_path, cache_store, layer_load, layer_path
from seqlab.tableaux import avoiders_sequence

from helpers import catalan, cold_tables


@pytest.fixture
def cache(tmp_path):
    return str(tmp_path / "cache")


class TestSeq:
    def test_bfile_output(self, capsys, cache):
        assert main(["seq", "--d", "3", "--r", "1", "--nmax", "4",
                     "--format", "bfile", "--cache-dir", cache]) == 0
        assert capsys.readouterr().out == "0 1\n1 1\n2 2\n3 5\n4 14\n"

    def test_csv_output(self, capsys, cache):
        main(["seq", "--d", "2", "--r", "1", "--nmax", "2",
              "--format", "csv", "--cache-dir", cache])
        assert capsys.readouterr().out == "0,1\n1,1\n2,1\n"

    def test_plain_output(self, capsys, cache):
        main(["seq", "--d", "3", "--r", "1", "--nmax", "3", "--cache-dir", cache])
        assert capsys.readouterr().out == "1\n1\n2\n5\n"

    def test_stores_record(self, cache):
        main(["seq", "--d", "4", "--r", "2", "--nmax", "6", "--cache-dir", cache])
        rec = cache_load(4, 2, cache)
        assert rec is not None
        assert list(rec.terms) == avoiders_sequence(4, 2, 6)

    def test_warm_cache_skips_dp(self, capsys, cache):
        main(["seq", "--d", "3", "--r", "1", "--nmax", "8",
              "--cache-dir", cache, "--stats"])
        first = capsys.readouterr().err
        assert "dp layers computed = 8" in first
        main(["seq", "--d", "3", "--r", "1", "--nmax", "6",
              "--cache-dir", cache, "--stats"])
        second = capsys.readouterr().err
        assert "dp layers computed = 0" in second

    def test_env_var_cache(self, capsys, cache, monkeypatch):
        monkeypatch.setenv("SEQLAB_CACHE", cache)
        assert main(["seq", "--d", "3", "--r", "2", "--nmax", "3"]) == 0
        assert cache_load(3, 2, cache) is not None

    def test_longer_request_extends_cache(self, capsys, cache):
        main(["seq", "--d", "3", "--r", "1", "--nmax", "3", "--cache-dir", cache])
        main(["seq", "--d", "3", "--r", "1", "--nmax", "10", "--cache-dir", cache])
        assert len(cache_load(3, 1, cache).terms) == 11

    @pytest.mark.parametrize("command", [
        ["seq"], ["guess"], ["extend", "--rec", "REC"], ["asym"], ["asym", "--rec", "REC"], ["oeis"],
    ], ids=["seq", "guess", "extend", "asym", "asym-rec", "oeis"])
    def test_negative_nmax_is_an_error_on_a_warm_cache(self, capsys, tmp_path, cache, command):
        rec_file = tmp_path / "rec.txt"
        rec_file.write_text("ORDER 1 DEGREE 1 OFFSET 0\n-2 -4\n2 1\n")
        key = ["--d", "3", "--r", "1", "--cache-dir", cache]
        assert main(["seq", "--nmax", "10"] + key) == 0
        capsys.readouterr()
        command = [str(rec_file) if arg == "REC" else arg for arg in command]
        assert main(command + key + ["--nmax", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need nmax >= 0, got -1\n"


def reference_terms(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / name
    return [int(line.split()[1]) for line in path.read_text().splitlines() if line[:1].isdigit()]


def cache_files(cache):
    """Each cache file's bytes, with the b-file's timestamp blanked."""
    files = {}
    for entry in sorted(os.scandir(cache), key=lambda e: e.name):
        text = Path(entry.path).read_text()
        files[entry.name] = re.sub(r"timestamp=\S+", "timestamp=T", text)
    return files


class TestResume:
    """A shorter cached record resumes from its stored last layer."""

    def seq(self, capsys, cache, d, r, nmax, *extra):
        assert main(["seq", "--d", str(d), "--r", str(r), "--nmax", str(nmax),
                     "--cache-dir", cache, *extra]) == 0
        return capsys.readouterr()

    def test_stats_count_only_the_new_layers(self, capsys, cache):
        self.seq(capsys, cache, 3, 1, 15)
        assert self.seq(capsys, cache, 3, 1, 40, "--stats").err == (
            "stats: dp layers computed = 25 (resumed from layer 15)\n"
        )

    def test_resumed_pass_advances_only_the_new_layers(self, capsys, cache, monkeypatch):
        import seqlab.tableaux

        self.seq(capsys, cache, 4, 2, 10)
        calls = []
        original = seqlab.tableaux.advance_layer
        monkeypatch.setattr(
            seqlab.tableaux, "advance_layer", lambda *a: calls.append(a) or original(*a)
        )
        self.seq(capsys, cache, 4, 2, 20)
        assert len(calls) == 10

    @pytest.mark.parametrize("d, r, lo, hi, reference", [
        (3, 1, 15, 40, None), (4, 2, 10, 20, "d4_r2.txt"),
    ])
    def test_resumed_run_is_byte_identical_to_a_cold_one(
        self, capsys, tmp_path, d, r, lo, hi, reference
    ):
        cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
        want = self.seq(capsys, cold, d, r, hi).out
        self.seq(capsys, warm, d, r, lo)
        assert self.seq(capsys, warm, d, r, hi).out == want
        assert cache_files(warm) == cache_files(cold)
        assert sorted(cache_files(warm)) == [f"A_d{d}_r{r}.bfile", f"A_d{d}_r{r}.layer"]
        terms = reference_terms(reference)[: hi + 1] if reference else [catalan(n) for n in range(hi + 1)]
        assert want == "".join(f"{t}\n" for t in terms)

    def test_checkpoint_in_the_old_format_is_reported(self, capsys, cache):
        # a .layer file from before slices and runs: one hex `key count`
        # line per shape, the shape packed into cap = d - 1 fields of width
        # bits, row 0 on top, in descending key order
        self.seq(capsys, cache, 3, 1, 15)
        path, bfile = layer_path(cache, 3, 1), cache_path(cache, 3, 1)
        lines = []
        for shape, count in cold_tables(3, 1, 15)[-1].items():  # descending key order
            row0, row1 = (*shape, 0)[:2]
            lines.append(f"{row0 << 4 | row1:x} {count:x}\n")
        path.write_text("# seqlab layer d=3 r=1 n=15 width=4 cap=2\n" + "".join(lines))
        good = bfile.read_text()
        fields = r"header fields are \['cap', 'd', 'n', 'r', 'width'\], expected \['d', 'r', 'n'\]"
        with pytest.raises(CacheError, match=fields) as excinfo:
            layer_load(cache_load(3, 1, cache), cache)
        assert excinfo.value.path == path
        assert main(["seq", "--d", "3", "--r", "1", "--nmax", "20", "--cache-dir", cache]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.search(fields, err) and err.rstrip().endswith(f"[{path}]")
        assert bfile.read_text() == good
        # the b-file still serves what it covers
        assert self.seq(capsys, cache, 3, 1, 15).out == "".join(f"{catalan(n)}\n" for n in range(16))
        # with the old file deleted, a longer seq starts from layer 0
        path.unlink()
        assert self.seq(capsys, cache, 3, 1, 20, "--stats").err == "stats: dp layers computed = 20\n"
        assert layer_path(cache, 3, 1).read_text().splitlines()[0] == "# seqlab layer d=3 r=1 n=20"

    @pytest.mark.parametrize("command", [
        ["guess"], ["asym"], ["oeis", "--mode", "local", "--dump", "DUMP"],
    ], ids=["guess", "asym", "oeis"])
    def test_readers_resume_but_write_nothing(self, capsys, tmp_path, cache, command):
        dump = tmp_path / "stripped"
        dump.write_text("A000108 ,1,1,2,5,14,42,\n")
        command = [str(dump) if arg == "DUMP" else arg for arg in command]
        self.seq(capsys, cache, 3, 1, 20)
        before = {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(cache)}
        assert main(command + ["--d", "3", "--r", "1", "--nmax", "30", "--cache-dir", cache, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "stats: dp layers computed = 10 (resumed from layer 20)" in err.splitlines()
        after = {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(cache)}
        assert after == before

    def test_extended_terms_past_the_checkpoint_are_checked(self, capsys, tmp_path, cache):
        rec_file = tmp_path / "rec.txt"
        rec_file.write_text("ORDER 1 DEGREE 1 OFFSET 0\n-2 -4\n2 1\n")
        self.seq(capsys, cache, 3, 1, 20)
        assert main(["extend", "--d", "3", "--r", "1", "--nmax", "40", "--rec", str(rec_file),
                     "--store", "--cache-dir", cache]) == 0
        capsys.readouterr()
        bfile = cache_path(cache, 3, 1)
        good = bfile.read_text()
        # a wrong extended term is caught by the resumed DP's store
        bfile.write_text(good.replace(f"\n30 {catalan(30)}\n", f"\n30 {catalan(30) + 1}\n"))
        assert main(["seq", "--d", "3", "--r", "1", "--nmax", "50", "--cache-dir", cache]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "disagree" in err and str(bfile) in err
        bfile.write_text(good)
        err = self.seq(capsys, cache, 3, 1, 50, "--stats").err
        assert err == "stats: dp layers computed = 30 (resumed from layer 20)\n"
        assert cache_load(3, 1, cache).terms == tuple(catalan(n) for n in range(51))

    def test_extend_store_writes_no_checkpoint(self, capsys, cache):
        # the seed runs the DP to layer 3, but only seq writes checkpoints
        rec = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "d4_r2.rec"
        assert main(["extend", "--d", "4", "--r", "2", "--nmax", "30", "--rec", str(rec),
                     "--store", "--cache-dir", cache]) == 0
        terms = reference_terms("d4_r2.txt")[:31]
        assert capsys.readouterr().out == "".join(f"{t}\n" for t in terms)
        assert sorted(os.listdir(cache)) == ["A_d4_r2.bfile"]
        assert cache_load(4, 2, cache).terms == tuple(terms)

    def test_corrupt_checkpoint_is_an_error_naming_its_path(self, capsys, cache):
        self.seq(capsys, cache, 3, 1, 20)
        path = layer_path(cache, 3, 1)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([lines[0], "zz 1\n", *lines[2:]]))
        assert main(["seq", "--d", "3", "--r", "1", "--nmax", "30", "--cache-dir", cache]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: corrupt layer checkpoint: line 2: non-hex field")
        assert err.rstrip().endswith(f"[{path}]")


class TestCountAndOracle:
    def test_count(self, capsys):
        assert main(["count", "--d", "2", "--r", "5", "--n", "7"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_count_catalan(self, capsys):
        main(["count", "--d", "3", "--r", "1", "--n", "10"])
        assert capsys.readouterr().out == f"{catalan(10)}\n"

    def test_oracle(self, capsys):
        assert main(["oracle", "--d", "3", "--r", "1", "--n", "4"]) == 0
        assert capsys.readouterr().out == "14\n"

    @pytest.mark.parametrize("argv, message", [
        (["count", "--d", "1", "--r", "1", "--n", "3"], "d must be at least 2"),
        (["count", "--d", "3", "--r", "0", "--n", "3"], "need r >= 1 and n >= 0"),
        (["count", "--d", "3", "--r", "1", "--n", "-1"], "need r >= 1 and n >= 0"),
        (["seq", "--d", "1", "--r", "1", "--nmax", "3"], "d must be at least 2"),
    ], ids=["count-d", "count-r", "count-n", "seq-d"])
    def test_domain_error_exits_one(self, capsys, cache, argv, message):
        if argv[0] == "seq":
            argv = [*argv, "--cache-dir", cache]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_count_past_the_digit_limit(self, capsys):
        # no increasing run of 3 from two letters: C(34000, 17000), 10,233 digits
        assert main(["count", "--d", "3", "--r", "17000", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out == f"{Decimal(comb(34000, 17000))}\n"
        assert len(out) == 10234


class TestCheck:
    def test_passes_on_grid(self, capsys):
        assert main(["check", "--d", "4", "--r", "2", "--nmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "MISMATCH" not in out

    def test_budget_skips(self, capsys):
        assert main(["check", "--d", "3", "--r", "1", "--nmax", "6",
                     "--budget", "100"]) == 0
        assert "skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["--d", "3", "--r", "1", "--nmax", "-1"],
        ["--d", "1", "--r", "1", "--nmax", "3", "--budget", "0"],
        ["--d", "3", "--r", "0", "--nmax", "3"],
        ["--d", "3", "--r", "1", "--nmax", "3", "--budget", "0"],
        ["--d", "3", "--r", "1", "--nmax", "0", "--budget", "-5"],
    ])
    def test_bad_input_is_no_pass(self, capsys, args):
        assert main(["check"] + args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_word_counts_past_the_digit_limit(self, capsys):
        # 1559! words at n = 1559: 4303 digits
        assert main(["check", "--d", "3", "--r", "1", "--nmax", "1559"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1561
        assert lines[-1] == "PASS (d=3, r=1, n<=1559, skipped=1550)"
        assert lines[1559] == f"n=1559: skipped ({Decimal(factorial(1559))} words exceed budget 1000000)"

    def test_budget_past_the_digit_limit(self, capsys):
        # a 5000-digit option value, past Python's 4300-digit int() limit
        assert main(["check", "--d", "3", "--r", "1", "--nmax", "3", "--budget", "9" * 5000]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS (d=3, r=1, n<=3, skipped=0)"

    def test_one_dp_pass(self, capsys, monkeypatch):
        import seqlab.tableaux

        calls = []
        original = seqlab.tableaux.advance_layer
        monkeypatch.setattr(
            seqlab.tableaux, "advance_layer", lambda *a: calls.append(a) or original(*a)
        )
        assert main(["check", "--d", "5", "--r", "2", "--nmax", "5"]) == 0
        assert "MISMATCH" not in capsys.readouterr().out
        assert len(calls) == 5


class TestGuessAndExtend:
    def test_guess_prints_recurrence(self, capsys, cache):
        assert main(["guess", "--d", "3", "--r", "1", "--nmax", "29",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        rec = parse_recurrence(out)
        assert rec.order == 1 and rec.degree == 1

    def test_guess_failure_exits_one(self, capsys, cache):
        # d=2 gives all-ones; an order-1 recurrence exists, so force a miss
        # with an impossible box via primes? simpler: tiny term count
        assert main(["guess", "--d", "4", "--r", "1", "--nmax", "29",
                     "--max-order", "1", "--max-degree", "0",
                     "--cache-dir", cache]) == 1
        assert "no recurrence found" in capsys.readouterr().out

    def test_failure_line_names_the_top_orders_reach(self, capsys, cache):
        # hard-r2's guess: 45 (5,2) terms, 11 held out, determine order 5
        # only to degree 3 and order 20 at no degree
        assert main(["seq", "--d", "5", "--r", "2", "--nmax", "44", "--cache-dir", cache]) == 0
        capsys.readouterr()
        box = ["guess", "--d", "5", "--r", "2", "--nmax", "44", "--cache-dir", cache]
        assert main(box + ["--max-order", "5", "--max-degree", "10"]) == 1
        assert capsys.readouterr().out == (
            "no recurrence found within order 5, degree 10 (order 5 searched only to degree 3, "
            "the most the terms determine; not a disproof; try more terms or wider bounds)\n"
        )
        assert main(box + ["--max-order", "20", "--max-degree", "2"]) == 1
        assert capsys.readouterr().out == (
            "no recurrence found within order 20, degree 2 (order 20 not searched, the terms "
            "determine none of its degrees; not a disproof; try more terms or wider bounds)\n"
        )
        # a box the terms determine throughout keeps the plain line
        assert main(box + ["--max-order", "2", "--max-degree", "3"]) == 1
        assert capsys.readouterr().out == (
            "no recurrence found within order 2, degree 3 (not a disproof; try more terms or wider bounds)\n"
        )

    @pytest.mark.parametrize("box, message", [
        (["--holdout", "0"], "holdout must be positive"),
        (["--max-order", "0"], "need max_order >= 1 and max_degree >= 0"),
        (["--max-degree", "-1"], "need max_order >= 1 and max_degree >= 0"),
        (["--holdout", "40"], "need at least 43 terms (order 1, degree 0, holdout 40); got 31"),
    ])
    def test_bad_box_is_rejected_before_any_dp(self, capsys, cache, monkeypatch, box, message):
        import seqlab.tableaux

        calls = []
        original = seqlab.tableaux.advance_layer
        monkeypatch.setattr(
            seqlab.tableaux, "advance_layer", lambda *a: calls.append(a) or original(*a)
        )
        assert main(["guess", "--d", "5", "--r", "2", "--nmax", "30", "--cache-dir", cache] + box) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert calls == []
        assert not os.path.isdir(cache) or os.listdir(cache) == []

    def test_stats_reports_each_pair(self, capsys, cache):
        args = ["guess", "--d", "3", "--r", "1", "--nmax", "29", "--cache-dir", cache]
        assert main(args + ["--stats"]) == 0
        pairs = [
            re.fullmatch(
                r"stats: guess order (\d+) degree (\d+): (\d+) unknowns, "
                r"\d+\.\d+ s, (rank-full mod p|undecided|"
                r"zero leading polynomial|held-out rejected|accepted)",
                line,
            )
            for line in capsys.readouterr().err.splitlines()
            if "guess order" in line
        ]
        assert [m.group(1, 2, 3, 4) for m in pairs] == [
            ("1", "0", "2", "rank-full mod p"),
            ("2", "0", "3", "rank-full mod p"),
            ("1", "1", "4", "accepted"),
        ]
        assert main(args) == 0
        assert capsys.readouterr().err == ""

    def test_stats_reports_each_screen(self, capsys, cache):
        # one screen per order, printed before that order's first pair
        assert main(["guess", "--d", "3", "--r", "1", "--nmax", "29", "--cache-dir", cache, "--stats"]) == 0
        lines = capsys.readouterr().err.splitlines()
        screens = [
            re.fullmatch(
                r"stats: guess screen: order (\d+) rank-full below degree (\d+) "
                r"\(top degree (\d+), (\d+) windows, \d+\.\d{4} s\)",
                line,
            )
            for line in lines
            if "guess screen" in line
        ]
        assert [m.group(1, 2, 3, 4) for m in screens] == [("1", "1", "10", "22"), ("2", "1", "6", "21")]
        assert [line.split(":")[1] for line in lines[1:]] == [
            " guess screen", " guess order 1 degree 0", " guess screen", " guess order 2 degree 0", " guess order 1 degree 1",
        ]

    def test_default_box_finds_order_four(self, capsys, cache):
        assert main(["seq", "--d", "4", "--r", "2", "--nmax", "80",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["guess", "--d", "4", "--r", "2", "--nmax", "80",
                     "--cache-dir", cache, "--stats"]) == 0
        out, err = capsys.readouterr()
        assert "dp layers computed = 0 (cache hit)" in err
        rec = parse_recurrence(out)
        assert (rec.order, rec.degree) == (4, 7)
        assert verify(rec, cache_load(4, 2, cache).terms)

    @pytest.mark.parametrize("d, r, nmax, order, degree", [
        (3, 1, 29, 1, 1), (4, 1, 39, 2, 2), (4, 2, 80, 4, 7),
    ])
    def test_library_and_cli_share_the_default_box(
        self, capsys, tmp_path, cache, d, r, nmax, order, degree
    ):
        rec = guess(avoiders_sequence(d, r, nmax))
        assert (rec.order, rec.degree) == (order, degree)
        rec_file = tmp_path / "rec.txt"
        assert main(["guess", "--d", str(d), "--r", str(r), "--nmax", str(nmax),
                     "--out", str(rec_file), "--cache-dir", cache]) == 0
        assert rec_file.read_text() == format_recurrence(rec)

    def test_guess_extend_round_trip(self, capsys, tmp_path, cache):
        rec_file = tmp_path / "rec.txt"
        assert main(["guess", "--d", "3", "--r", "1", "--nmax", "29",
                     "--out", str(rec_file), "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["extend", "--d", "3", "--r", "1", "--nmax", "40",
                     "--rec", str(rec_file), "--format", "bfile",
                     "--cache-dir", cache, "--store"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[40] == f"40 {catalan(40)}"
        stored = cache_load(3, 1, cache)
        assert stored.provenance == "extended-by-recurrence"
        assert len(stored.terms) == 41

    def test_terms_past_the_digit_limit(self, capsys, tmp_path, cache):
        # a(n + 1) = 10^100 a(n): a(100) has 10,001 digits, past Python's
        # default 4300-digit limit on int <-> str
        rec_file = tmp_path / "rec.txt"
        rec_file.write_text(f"ORDER 1 DEGREE 0 OFFSET 0\n-{10**100}\n1\n")
        expected = ["1" + "0" * (100 * n) for n in range(101)]
        key = ["--d", "3", "--r", "1", "--nmax", "100", "--cache-dir", cache]
        assert main(["extend", *key, "--rec", str(rec_file), "--store"]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        assert cache_load(3, 1, cache).terms[-1] == 10**10000
        # seq reads the stored terms back, in every format
        assert main(["seq", *key]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        assert main(["seq", *key, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"100,{expected[-1]}"
        assert main(["seq", *key, "--format", "bfile"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"100 {expected[-1]}"

    def test_extend_stats_reports_layers(self, capsys, tmp_path, cache):
        rec_file = tmp_path / "rec.txt"
        assert main(["guess", "--d", "3", "--r", "1", "--nmax", "29",
                     "--out", str(rec_file), "--cache-dir", cache]) == 0
        capsys.readouterr()
        extend = ["extend", "--d", "3", "--r", "1", "--rec", str(rec_file),
                  "--store", "--cache-dir", cache, "--stats", "--nmax"]
        assert main(extend + ["40"]) == 0
        assert capsys.readouterr().err == "stats: dp layers computed = 0\n"
        # a shorter store keeps the longer record, and its notice is no stat
        assert main(extend + ["20"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "stats: dp layers computed = 0 (cache hit)",
            f"keep-longest: {cache}/A_d3_r1.bfile already holds 41 terms; "
            "not replacing with 21",
        ]


class TestAsym:
    def test_report(self, capsys, cache):
        assert main(["asym", "--d", "3", "--r", "1", "--nmax", "80",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "conjectured growth base mu = 4" in out
        assert "conjectured decay exponent alpha = 3/2" in out
        assert "empirical base" in out
        assert "estimates by level" in out

    def test_row_count(self, capsys, cache):
        args = ["asym", "--d", "3", "--r", "1", "--nmax", "40", "--cache-dir", cache]
        assert main(args + ["--rows", "0"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 8
        assert main(args + ["--rows", "-3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_deep_ladder_keeps_its_digits(self, capsys, cache):
        # ten levels at stride 1 amplify rounding by about 2^100; the limit
        # is 1/sqrt(pi) = 0.564189584
        assert main(["asym", "--d", "3", "--r", "1", "--nmax", "400", "--levels", "10",
                     "--stride", "1", "--rows", "0", "--cache-dir", cache]) == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [l for l in lines if l.startswith("estimates by level: ")]
        assert line.endswith(", 0.564189584")

    @pytest.mark.parametrize("d, r, nmax, rec, base, decay", [
        (3, 1, 370, False, "3.999936", "1.4915"),
        (3, 1, 373, False, "3.999937", "1.4915"),
        (4, 2, 600, True, "53.999169", "3.9866"),
        (4, 2, 603, True, "53.999179", "3.9867"),
    ])
    def test_benchmark_fit_lines(self, capsys, cache, d, r, nmax, rec, base, decay):
        # the benchmark's asym commands at its first and last shift
        args = ["asym", "--d", str(d), "--r", str(r), "--nmax", str(nmax), "--cache-dir", cache]
        if rec:
            data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
            args += ["--rec", str(data / "d4_r2.rec")]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"empirical base  ~ {base}" in lines
        assert f"empirical decay ~ {decay}" in lines

    @pytest.mark.parametrize("bad", [["--stride", "0"], ["--levels", "-1"], ["--stride", "-2"]])
    def test_bad_ladder_prints_nothing(self, capsys, cache, bad):
        assert main(["asym", "--d", "3", "--r", "1", "--nmax", "40",
                     "--cache-dir", cache] + bad) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: levels and stride must be positive\n"

    def test_rec_verifies_the_cached_record(self, capsys, tmp_path, cache):
        # (n + 2) a(n+1) = (4n + 2) a(n): the Catalan numbers
        rec_file = tmp_path / "rec.txt"
        rec_file.write_text("ORDER 1 DEGREE 1 OFFSET 0\n-2 -4\n2 1\n")
        cache_store(SequenceRecord(d=3, r=1, terms=(1, 1, 2, 5, 15)), cache)
        for command in ("asym", "extend"):
            assert main([command, "--d", "3", "--r", "1", "--nmax", "40",
                         "--rec", str(rec_file), "--cache-dir", cache]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: seed is inconsistent with the recurrence\n"


class TestGessel:
    def test_pass(self, capsys):
        assert main(["gessel", "--k", "2", "--nmax", "8"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestOeisCommand:
    def test_local_lookup(self, capsys, tmp_path):
        dump = tmp_path / "stripped"
        dump.write_text("A000108 ,1,1,2,5,14,42,\n")
        assert main(["oeis", "--mode", "local", "--dump", str(dump),
                     "--terms", "1,2,5,14"]) == 0
        assert "A000108 offset=1" in capsys.readouterr().out

    def test_query_past_the_digit_limit(self, capsys, tmp_path):
        nines = "9" * 5000
        dump = tmp_path / "stripped"
        dump.write_text(f"A000108 ,1,1,2,5,14,42,\nA000001 ,2,1,{nines},3,\n")
        assert main(["oeis", "--mode", "local", "--dump", str(dump),
                     "--terms", f"1,{nines}"]) == 0
        assert capsys.readouterr().out == "A000001 offset=1\n"

    @pytest.mark.parametrize("data, terms, bad", [
        ("1,1,2,5,", "1,1_000", "1_000"),
        ("1,1_000,2,", "1,2", "1_000"),
        ("1,\u0661,2,", "1,2", "\u0661"),
    ], ids=["query-underscore", "dump-underscore", "dump-arabic-indic"])
    def test_non_decimal_text_exits_one(self, capsys, tmp_path, data, terms, bad):
        # int() alone reads every one of these
        dump = tmp_path / "stripped"
        dump.write_text(f"A000108 ,1,1,2,5,14,42,\nA000001 ,{data}\n")
        assert main(["oeis", "--mode", "local", "--dump", str(dump), "--terms", terms]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and bad in err

    def test_missing_dump_exits_one(self, capsys, tmp_path):
        assert main(["oeis", "--mode", "local", "--dump",
                     str(tmp_path / "nope"), "--terms", "1,2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_remote_fixture_server(self, capsys, monkeypatch):
        body = json.dumps({"results": [
            {"number": 108, "name": "Catalan numbers", "data": "1,1,2,5,14"}
        ]}).encode()

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        ).start()
        try:
            import seqlab.oeis as oeis_mod

            monkeypatch.setattr(oeis_mod, "MIN_REQUEST_INTERVAL", 0.0)
            monkeypatch.setenv(
                "SEQLAB_OEIS_URL",
                f"http://127.0.0.1:{server.server_address[1]}/search",
            )
            assert main(["oeis", "--terms", "1 1 2 5"]) == 0
            assert "A000108" in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()

    def test_remote_unreachable_exits_one(self, capsys, monkeypatch):
        import socket

        import seqlab.oeis as oeis_mod

        monkeypatch.setattr(oeis_mod, "MIN_REQUEST_INTERVAL", 0.0)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        monkeypatch.setenv("SEQLAB_OEIS_URL", f"http://127.0.0.1:{port}/x")
        assert main(["oeis", "--terms", "1,2,3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_needs_terms_or_key(self, capsys):
        assert main(["oeis"]) == 1
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["seq", "--d", "3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["1_0", " 10", "\u0661"])
    def test_integer_options_read_decimal_text_only(self, capsys, value):
        # int() reads every one of these
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--d", "3", "--r", "1", "--nmax", "3", "--budget", value])
        assert excinfo.value.code == 2
        assert f"argument --budget: invalid integer value: {value!r}" in capsys.readouterr().err

    def test_bad_format_choice(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["seq", "--d", "3", "--r", "1", "--nmax", "2",
                  "--format", "xml"])
        assert excinfo.value.code == 2
