import io
import logging
import random
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import storage
from seqlab.storage import (
    CacheError,
    SequenceRecord,
    cache_load,
    cache_path,
    cache_store,
    format_bfile,
    int_to_text,
    layer_load,
    layer_path,
    parse_bfile,
    resolve_cache_dir,
    text_to_int,
)
from seqlab.tableaux import Checkpoint, LayerTable, avoiders_sequence

from helpers import catalan, cold_tables

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "data"

# 10,142 digits: past Python's default 4300-digit limit on int <-> str
HUGE = 7**12000

terms_strategy = st.lists(
    st.integers(0, 10**40), min_size=0, max_size=30
).map(lambda rest: tuple([1] + rest))


def record(d=3, r=1, terms=(1, 1, 2, 5, 14), **kw):
    return SequenceRecord(d=d, r=r, terms=terms, **kw)


class TestSequenceRecord:
    def test_valid(self):
        rec = record()
        assert rec.terms == (1, 1, 2, 5, 14)
        assert rec.provenance == "computed"

    def test_rejects_empty_terms(self):
        with pytest.raises(ValueError):
            record(terms=())

    def test_rejects_wrong_first_term(self):
        with pytest.raises(ValueError):
            record(terms=(2, 3))

    @pytest.mark.parametrize("term", [1.7, 1.0, "2", "1_4"])
    def test_rejects_a_term_that_is_no_int(self, term):
        # no truncation: (1, 1.7, '2', '1_4') is not (1, 1, 2, 14)
        with pytest.raises(TypeError):
            record(terms=(1, 1, term))

    def test_rejects_bad_provenance(self):
        with pytest.raises(ValueError):
            record(provenance="guessed")

    def test_rejects_bad_key(self):
        with pytest.raises(ValueError):
            record(d=1)
        with pytest.raises(ValueError):
            record(r=0)


class TestBfileFormat:
    def test_plain_text(self):
        assert "".join(format_bfile([1, 1, 2])) == "0 1\n1 1\n2 2\n"

    def test_parse_round_trip_with_metadata(self, tmp_path):
        rec = record(provenance="extended-by-recurrence")
        cache_store(rec, tmp_path)
        text = cache_path(tmp_path, 3, 1).read_text()
        assert text.splitlines()[0] == "# seqlab d=3 r=1 provenance=extended-by-recurrence"
        terms, meta = parse_bfile(text.splitlines())
        assert tuple(terms) == rec.terms
        assert meta == {"d": "3", "r": "1", "provenance": "extended-by-recurrence"}

    @given(terms_strategy)
    @settings(max_examples=50, deadline=None)
    def test_emission_parses_back_identically(self, terms):
        parsed, _ = parse_bfile(format_bfile(terms))
        assert tuple(parsed) == terms

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "0 1\nx 2\n",
            "0 1\n2 2\n",        # index gap
            "1 1\n",             # wrong start index
            "0 1 9\n",           # extra field
            "0 1\n# late comment\n1 1\n",
            "0 1\n1 1_000\n",      # int() alone takes these two
            "0 1\n1 \u0661\n",
            "0 1\n1 +-1\n",
            "0 1\x0c1 1\n",       # one line of four fields, as a file reads it
        ],
    )
    def test_parse_rejects_damage(self, text):
        with pytest.raises(ValueError):
            parse_bfile(io.StringIO(text))

    def test_terms_past_the_digit_limit(self):
        text = "".join(format_bfile([1, HUGE, -HUGE]))
        assert text.splitlines()[1:] == [f"1 {Decimal(HUGE)}", f"2 {Decimal(-HUGE)}"]
        assert len(text.splitlines()[1]) == len("1 ") + 10142
        assert parse_bfile(text.splitlines()) == ([1, HUGE, -HUGE], {})

    @pytest.mark.parametrize(
        "value",
        [10**4300 - 1, 10**4300, -(10**4300)],
        ids=["4300-digits", "4301-digits", "minus-4301-digits"],
    )
    def test_conversions_either_side_of_the_digit_limit(self, value):
        text = int_to_text(value)
        assert text == str(Decimal(value))
        assert text_to_int(text) == value

    @pytest.mark.parametrize("digits", [4299, 4300, 4301, 4416, 8600, 13000])
    @pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "least-limit"])
    def test_round_trips_in_chunks(self, digits, limit):
        # the halves under the interpreter's limit, whatever it is set to;
        # zero runs across a split point test the low half's padding, and
        # values either side of 3 * limit bits each route int_to_text takes
        rng = random.Random(digits)
        values = [rng.randrange(10 ** (digits - 1), 10**digits), 10 ** (digits - 1) + 7, 10**digits - 1]
        values += [2 ** (3 * limit) + k for k in (-1, 0, 1)]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for value in values + [-v for v in values]:
                text = int_to_text(value)
                assert text == str(Decimal(value))
                assert text_to_int(text) == value
                sign = "-" if value < 0 else "+"
                assert text_to_int(sign + "0" * digits + text.lstrip("-")) == value
            assert text_to_int("0" * digits) == text_to_int("-" + "0" * digits) == 0
        finally:
            sys.set_int_max_str_digits(old)


class TestCache:
    def test_path_layout(self, tmp_path):
        assert cache_path(tmp_path, 4, 2) == tmp_path / "A_d4_r2.bfile"

    def test_resolution_order(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEQLAB_CACHE", raising=False)
        assert resolve_cache_dir("x") == resolve_cache_dir("x")
        assert str(resolve_cache_dir()) == ".seqlab"
        monkeypatch.setenv("SEQLAB_CACHE", str(tmp_path))
        assert resolve_cache_dir() == tmp_path
        assert resolve_cache_dir("explicit") != tmp_path

    def test_round_trip(self, tmp_path):
        rec = record()
        cache_store(rec, tmp_path)
        loaded = cache_load(3, 1, tmp_path)
        assert loaded is not None
        assert loaded.terms == rec.terms
        assert loaded.provenance == rec.provenance

    def test_absent_key(self, tmp_path):
        assert cache_load(9, 9, tmp_path) is None

    def test_longer_store_wins(self, tmp_path):
        cache_store(record(terms=(1, 1, 2)), tmp_path)
        cache_store(record(terms=(1, 1, 2, 5, 14)), tmp_path)
        assert cache_load(3, 1, tmp_path).terms == (1, 1, 2, 5, 14)

    def test_shorter_store_rejected_with_notice(self, tmp_path, caplog):
        long_rec = record(terms=(1, 1, 2, 5, 14))
        cache_store(long_rec, tmp_path)
        with caplog.at_level(logging.WARNING, logger="seqlab.storage"):
            kept = cache_store(record(terms=(1, 1)), tmp_path)
        assert kept.terms == long_rec.terms
        assert any("keep-longest" in msg for msg in caplog.messages)
        assert cache_load(3, 1, tmp_path).terms == long_rec.terms

    def test_conflicting_overlap_raises(self, tmp_path):
        cache_store(record(terms=(1, 1, 2)), tmp_path)
        with pytest.raises(CacheError, match="disagree"):
            cache_store(record(terms=(1, 1, 3, 7)), tmp_path)

    def test_stamped_bfile_loads_and_is_rewritten_only_when_it_grows(self, tmp_path):
        # b-files once carried a wall-clock stamp in their header
        path = cache_path(tmp_path, 3, 1)
        stamped = "# seqlab d=3 r=1 provenance=computed timestamp=2024-01-01T00:00:00+00:00\n0 1\n1 1\n2 2\n"
        path.write_text(stamped)
        assert cache_load(3, 1, tmp_path) == record(terms=(1, 1, 2))
        inode = path.stat().st_ino
        cache_store(record(terms=(1, 1, 2)), tmp_path)
        assert path.read_text() == stamped
        assert path.stat().st_ino == inode
        cache_store(record(terms=(1, 1, 2, 5)), tmp_path)
        assert path.read_text() == "# seqlab d=3 r=1 provenance=computed\n0 1\n1 1\n2 2\n3 5\n"

    def test_corrupt_file_reported_with_path(self, tmp_path):
        path = cache_path(tmp_path, 3, 1)
        path.write_text("0 1\nbroken line\n")
        with pytest.raises(CacheError) as excinfo:
            cache_load(3, 1, tmp_path)
        assert excinfo.value.path == path
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("suffix, message", [
        ("bfile", "cannot read cache file"),
        ("layer", "cannot read layer checkpoint"),
    ])
    def test_unreadable_file_reported_with_path(self, tmp_path, suffix, message):
        # a directory where the file belongs: opening it is an OSError
        stored_layer(tmp_path)
        path = tmp_path / f"A_d3_r1.{suffix}"
        path.unlink()
        path.mkdir()
        with pytest.raises(CacheError, match=message) as excinfo:
            layer_load(cache_load(3, 1, tmp_path), tmp_path)
        assert excinfo.value.path == path
        assert str(path) in str(excinfo.value)

    def test_key_metadata_mismatch_detected(self, tmp_path):
        cache_store(record(d=3, r=1), tmp_path)
        src = cache_path(tmp_path, 3, 1)
        src.rename(cache_path(tmp_path, 4, 1))
        with pytest.raises(CacheError, match="metadata"):
            cache_load(4, 1, tmp_path)

    def test_no_temp_files_left_behind(self, tmp_path):
        cache_store(record(), tmp_path)
        cache_store(record(d=5, r=2, terms=(1, 1)), tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["A_d3_r1.bfile", "A_d5_r2.bfile"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # a term fails to convert after earlier lines reached the temp file:
        # the original error propagates, whatever its type, the temp file
        # goes, and the stored b-file keeps its bytes and its inode
        cache_store(record(), tmp_path)
        path = cache_path(tmp_path, 3, 1)
        stored, inode = path.read_bytes(), path.stat().st_ino
        longer = record(terms=tuple(catalan(n) for n in range(400)))
        written = []

        def unwritable(value):
            if value == longer.terms[-1]:
                written.extend(p.stat().st_size for p in tmp_path.glob("*.tmp"))
                raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")
            return str(value)

        monkeypatch.setattr(storage, "int_to_text", unwritable)
        with pytest.raises(ValueError, match="4300 digits"):
            cache_store(longer, tmp_path)
        assert len(written) == 1 and written[0] > 0
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == stored and path.stat().st_ino == inode

    def test_cache_files_are_never_held_whole(self, tmp_path):
        # a b-file of 2000 terms of about 2000 digits, over 4 MB: storing it,
        # and loading it beyond the record it gives, each takes under a tenth
        rec = record(terms=(1, *(7**2366 + n for n in range(1999))))
        tracemalloc.start()
        try:
            cache_store(rec, tmp_path)
            store_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = cache_load(3, 1, tmp_path)
            held, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = cache_path(tmp_path, 3, 1).stat().st_size
        assert size > 4_000_000
        assert loaded == rec
        assert store_peak < size / 10
        assert load_peak - held < size / 10

    def test_big_terms_survive(self, tmp_path):
        big = tuple([1] + [catalan(n) for n in range(200, 204)] + [HUGE, HUGE**2])
        cache_store(record(terms=big), tmp_path)
        assert cache_load(3, 1, tmp_path).terms == big


def stored_layer(directory, d=3, r=1, n=12):
    """The record 0..n and its layer-n checkpoint, both stored."""
    layer = Checkpoint(d, r)
    rec = record(d=d, r=r, terms=(1, *avoiders_sequence(d, r, n, layer)))
    cache_store(rec, directory, layer)
    return rec, layer


def edit_line(text, index, line):
    lines = text.splitlines(keepends=True)
    lines[index] = line
    return "".join(lines)


class TestLayerCheckpoint:
    def test_round_trip(self, tmp_path):
        rec, layer = stored_layer(tmp_path, d=4, n=12)
        assert layer_load(rec, tmp_path) == layer
        # one line per slice (row 2 here) in ascending slice order: the row
        # count, the rows, then the run's counts from row 1 = row 2, in hex;
        # the first run is the shapes (12 - i, i), the last (4, 4, 4) alone
        assert layer_path(tmp_path, 4, 1).read_text().splitlines() == [
            "# seqlab layer d=4 r=1 n=12",
            "0 1 b 36 9a 113 129 84",
            "1 1 37 140 37b 580 483",
            "1 2 268 785 a71 528",
            "1 3 672 840",
            "1 4 1ce",
        ]

    @pytest.mark.parametrize("d, r, n", [(2, 3, 6), (3, 1, 0), (3, 2, 9), (5, 2, 12), (6, 1, 11)])
    def test_read_back_equals_the_computed_checkpoint(self, tmp_path, d, r, n):
        # one form per table: runs from index 0, no zero, nothing else held
        rec, layer = stored_layer(tmp_path, d, r, n)
        assert all(run and 0 not in run for _, run in layer.table.items())
        assert layer_load(rec, tmp_path) == layer
        # one line per slice, in ascending slice order whatever the table's
        slices = []
        for line in layer_path(tmp_path, d, r).read_text().splitlines()[1:]:
            rows, *fields = (int(field, 16) for field in line.split())
            slices.append(tuple(fields[:rows]))
        assert slices == sorted(layer.table)

    def test_checkpoint_written_by_hand_resumes(self, tmp_path):
        # a layer file laid out slice by slice from the shapes of a cold
        # pass: d = 4, so each slice is row 2, and its run is indexed by
        # row 1 minus row 2
        reference = [int(line.split()[1]) for line in (REFERENCE / "d4_r2.txt").read_text().splitlines()
                     if line.strip() and line[0] != "#"]
        rec = record(d=4, r=2, terms=reference[:11])
        cache_store(rec, tmp_path)
        runs = {}
        for shape, count in cold_tables(4, 2, 10)[-1].items():
            _, row1, row2 = (*shape, 0, 0)[:3]
            runs.setdefault(shape[2:], {})[row1 - row2] = count
        lines = []
        for part, run in sorted(runs.items()):
            fields = (len(part), *part, *(run[i] for i in range(len(run))))
            lines.append(" ".join(f"{field:x}" for field in fields) + "\n")
        layer_path(tmp_path, 4, 2).write_text("# seqlab layer d=4 r=2 n=10\n" + "".join(lines))
        layer = layer_load(rec, tmp_path)
        assert layer.n == 10
        assert avoiders_sequence(4, 2, 20, layer) == reference[11:21]

    def test_absent_checkpoint(self, tmp_path):
        cache_store(record(), tmp_path)
        assert layer_load(record(), tmp_path) is None

    @pytest.mark.parametrize("corrupt, message", [
        (lambda text: text[: len(text) // 2], "corrupt layer checkpoint"),
        (lambda text: edit_line(text, 1, "0 1g\n"), "non-hex"),
        (lambda text: text.replace(" 9a ", " 9A "), "non-hex"),
        (lambda text: edit_line(text, 5, "2 2 5 1\n"), "no partition"),
        (lambda text: edit_line(text, 5, "2 3 0 1\n"), "no partition"),
        (lambda text: edit_line(text, 5, "1 d 1\n"), r"no run of 1 shapes .* = \(13,\)"),
        (lambda text: text + "2 1 1 1\n", r"no run of 1 shapes of at most 3 rows has rows 2\.\. = \(1, 1\)"),
        (lambda text: text.replace("\n1 4 1ce\n", "\n1 4 1ce 1\n"), r"no run of 2 shapes .* = \(4,\)"),
        (lambda text: text.replace("\n1 4 1ce\n", "\n1 4\n"), "run is empty"),
        (lambda text: text.replace("\n1 4 1ce\n", "\n1 4 0\n"), "not positive"),
        (lambda text: text.replace("\n1 4 1ce\n", "\n1 4 1cf\n"), "does not weigh"),
        (lambda text: text + text.splitlines(keepends=True)[-1], "twice"),
        (lambda text: text.replace("d=4 r=1", "d=5 r=1"), "expected d=4 r=1"),
        (lambda text: text.replace(" n=12", ""), "header fields"),
        (lambda text: text.replace("n=12", "n=13"), "not among"),
        (lambda text: text.replace("n=12", "n=1_2"), "non-integer header field"),
    ], ids=[
        "truncated", "bad-hex", "upper-case", "non-partition", "zero-row", "row-sum", "too-tall",
        "past-row-0", "empty-run", "zero-count", "wrong-total", "duplicate", "other-key", "header",
        "past-the-terms", "underscore-header",
    ])
    def test_corrupt_checkpoint_reported_with_path(self, tmp_path, corrupt, message):
        rec, _ = stored_layer(tmp_path, d=4, n=12)
        path = layer_path(tmp_path, 4, 1)
        path.write_text(corrupt(path.read_text()))
        with pytest.raises(CacheError, match=message) as excinfo:
            layer_load(rec, tmp_path)
        assert excinfo.value.path == path
        assert str(path) in str(excinfo.value)

    def test_slice_appearing_twice_is_reported(self, tmp_path):
        # a run split over two lines, each a valid run of the same slice
        rec, _ = stored_layer(tmp_path, d=4, n=8)
        path = layer_path(tmp_path, 4, 1)
        lines = path.read_text().splitlines(keepends=True)
        rows, row2, first, *rest = lines[2].split()
        assert (rows, row2) == ("1", "1") and rest
        lines[2] = f"1 1 {first}\n"
        lines.append(" ".join(["1", "1", *rest]) + "\n")
        path.write_text("".join(lines))
        with pytest.raises(CacheError, match=f"line {len(lines)}: its slice appears twice"):
            layer_load(rec, tmp_path)

    def test_checkpoint_must_weigh_to_the_cached_term(self, tmp_path):
        rec, _ = stored_layer(tmp_path)
        other = record(terms=rec.terms[:12] + (rec.terms[12] + 1,))
        with pytest.raises(CacheError, match="does not weigh"):
            layer_load(other, tmp_path)

    def test_other_key_file_is_rejected(self, tmp_path):
        rec, _ = stored_layer(tmp_path)
        stored_layer(tmp_path, d=3, r=2, n=5)
        layer_path(tmp_path, 3, 2).replace(layer_path(tmp_path, 3, 1))
        with pytest.raises(CacheError, match="header says d=3 r=2"):
            layer_load(rec, tmp_path)

    def test_lower_store_keeps_the_higher_checkpoint(self, tmp_path, caplog):
        rec, _ = stored_layer(tmp_path)
        kept = layer_path(tmp_path, 3, 1).read_text()
        lower = Checkpoint(3, 1)
        avoiders_sequence(3, 1, 8, lower)
        with caplog.at_level(logging.WARNING, logger="seqlab.storage"):
            cache_store(rec, tmp_path, lower)
        assert any("keep-highest" in msg for msg in caplog.messages)
        assert layer_path(tmp_path, 3, 1).read_text() == kept
        assert layer_load(rec, tmp_path).n == 12

    def test_unreadable_checkpoint_is_replaced(self, tmp_path):
        rec, layer = stored_layer(tmp_path)
        path = layer_path(tmp_path, 3, 1)
        good = path.read_text()
        path.write_text("garbage\n")
        cache_store(rec, tmp_path, layer)
        assert path.read_text() == good

    def test_checkpoint_ahead_of_its_record_is_replaced(self, tmp_path):
        # the b-file was removed, so the record stored next is shorter
        stored_layer(tmp_path, n=12)
        cache_path(tmp_path, 3, 1).unlink()
        rec, layer = stored_layer(tmp_path, n=8)
        assert layer_load(rec, tmp_path) == layer

    def test_checkpoint_of_another_key_is_refused_before_any_write(self, tmp_path):
        layer = Checkpoint(5, 2)
        avoiders_sequence(5, 2, 10, layer)
        rec = record(d=4, r=2, terms=(1, *avoiders_sequence(4, 2, 10)))
        with pytest.raises(ValueError, match=r"^the checkpoint counts d=5 r=2, not d=4 r=2$"):
            cache_store(rec, tmp_path, layer)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        rec, _ = stored_layer(tmp_path)
        kept = layer_path(tmp_path, 3, 1).read_text()
        longer = record(terms=(*rec.terms, 0, 0, 0, 0, 0, 0, 0, 0))
        unwritable = Checkpoint(3, 1, 20, LayerTable({(): ["not a count"]}))
        with pytest.raises(ValueError):
            cache_store(longer, tmp_path, unwritable)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["A_d3_r1.bfile", "A_d3_r1.layer"]
        assert layer_path(tmp_path, 3, 1).read_text() == kept

    def test_resumed_pass_weighs_only_its_new_layers(self, tmp_path, monkeypatch):
        import seqlab.tableaux

        rec, _ = stored_layer(tmp_path, d=4, r=1, n=40)
        cold = avoiders_sequence(4, 1, 60, Checkpoint(4, 1))
        shapes = []
        original = seqlab.tableaux.syt_count
        monkeypatch.setattr(
            seqlab.tableaux, "syt_count", lambda shape: shapes.append(shape) or original(shape)
        )
        layer = layer_load(rec, tmp_path)
        tail = avoiders_sequence(4, 1, 60, layer)
        assert [*rec.terms, *tail] == [1, *cold]
        # one call per slice (rows 2..) of each weighed layer: layer 40 once,
        # by the check, then 41..60 once each, by the pass, and none before
        weighed = cold_tables(4, 1, 60)[40:]
        assert sorted(shapes) == sorted(part for table in weighed for part in {shape[2:] for shape in table})
