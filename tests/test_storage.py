import calendar
import logging
import re
import time

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
    layer_load,
    layer_path,
    layer_store,
    parse_bfile,
    record_to_bfile,
    resolve_cache_dir,
)
from seqlab.tableaux import Checkpoint, avoiders_sequence, initial_layer, pack

from helpers import catalan

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
        assert rec.timestamp

    def test_timestamp_is_utc_to_the_second(self, tmp_path):
        # the b-file header keeps this exact form, so stored bytes stay stable
        form = re.compile(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00$")
        rec = record()
        assert form.match(rec.timestamp)
        stamped = calendar.timegm(time.strptime(rec.timestamp, "%Y-%m-%dT%H:%M:%S+00:00"))
        assert abs(stamped - time.time()) < 60
        cache_store(rec, tmp_path)
        _, meta = parse_bfile(cache_path(tmp_path, 3, 1).read_text())
        assert form.match(meta["timestamp"])

    def test_rejects_empty_terms(self):
        with pytest.raises(ValueError):
            record(terms=())

    def test_rejects_wrong_first_term(self):
        with pytest.raises(ValueError):
            record(terms=(2, 3))

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
        assert format_bfile([1, 1, 2]) == "0 1\n1 1\n2 2\n"

    def test_comments_lead(self):
        text = format_bfile([1, 5], comments=("hello",))
        assert text == "# hello\n0 1\n1 5\n"

    def test_parse_round_trip_with_metadata(self):
        rec = record(provenance="extended-by-recurrence")
        terms, meta = parse_bfile(record_to_bfile(rec))
        assert tuple(terms) == rec.terms
        assert meta["d"] == "3" and meta["r"] == "1"
        assert meta["provenance"] == "extended-by-recurrence"
        assert meta["timestamp"] == rec.timestamp

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
        ],
    )
    def test_parse_rejects_damage(self, text):
        with pytest.raises(ValueError):
            parse_bfile(text)


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

    def test_corrupt_file_reported_with_path(self, tmp_path):
        path = cache_path(tmp_path, 3, 1)
        path.write_text("0 1\nbroken line\n")
        with pytest.raises(CacheError) as excinfo:
            cache_load(3, 1, tmp_path)
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
        # the original error propagates, whatever its type
        def unwritable(record):
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

        monkeypatch.setattr(storage, "record_to_bfile", unwritable)
        with pytest.raises(ValueError, match="4300 digits"):
            cache_store(record(), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_big_terms_survive(self, tmp_path):
        big = tuple([1] + [catalan(n) for n in range(200, 204)])
        cache_store(record(terms=big), tmp_path)
        assert cache_load(3, 1, tmp_path).terms == big


def stored_layer(directory, d=3, r=1, n=12):
    """The record 0..n and its layer-n checkpoint, both stored."""
    layer = Checkpoint(0, 1, initial_layer())
    rec = record(d=d, r=r, terms=(1, *avoiders_sequence(d, r, n, layer)))
    layer_store(cache_store(rec, directory), layer, directory)
    return rec, layer


def edit_line(text, index, line):
    lines = text.splitlines(keepends=True)
    lines[index] = line
    return "".join(lines)


class TestLayerCheckpoint:
    def test_round_trip(self, tmp_path):
        rec, layer = stored_layer(tmp_path)
        assert layer.n == 12
        assert layer_load(rec, tmp_path) == layer
        text = layer_path(tmp_path, 3, 1).read_text()
        assert text.splitlines()[0] == "# seqlab layer d=3 r=1 n=12 width=4 cap=2"
        assert text.splitlines()[1:] == [f"{k:x} {c:x}" for k, c in layer.table.items()]

    def test_absent_checkpoint(self, tmp_path):
        cache_store(record(), tmp_path)
        assert layer_load(record(), tmp_path) is None

    @pytest.mark.parametrize("corrupt, message", [
        (lambda text: text[: len(text) // 2], "corrupt layer checkpoint"),
        (lambda text: edit_line(text, 1, "c0 1g\n"), "non-hex"),
        (lambda text: edit_line(text, 1, f"{pack((5, 7), 2, 4):x} 1\n"), "no partition"),
        (lambda text: edit_line(text, 1, f"{pack((13,), 2, 4):x} 1\n"), "no partition"),
        (lambda text: edit_line(text, 1, "c0 0\n"), "not positive"),
        (lambda text: text.replace("\nc0 1\n", "\nc0 2\n"), "does not weigh"),
        (lambda text: text + text.splitlines(keepends=True)[-1], "twice"),
        (lambda text: text.replace("d=3 r=1", "d=4 r=1"), "expected d=3 r=1"),
        (lambda text: text.replace("width=4", "width=5"), "width"),
        (lambda text: text.replace(" cap=2", ""), "header fields"),
        (lambda text: text.replace("n=12", "n=13"), "not among"),
    ], ids=[
        "truncated", "bad-hex", "non-partition", "row-sum", "zero-count", "wrong-total",
        "duplicate", "other-key", "width", "header", "past-the-terms",
    ])
    def test_corrupt_checkpoint_reported_with_path(self, tmp_path, corrupt, message):
        rec, _ = stored_layer(tmp_path)
        path = layer_path(tmp_path, 3, 1)
        path.write_text(corrupt(path.read_text()))
        with pytest.raises(CacheError, match=message) as excinfo:
            layer_load(rec, tmp_path)
        assert excinfo.value.path == path
        assert str(path) in str(excinfo.value)

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
        lower = Checkpoint(0, 1, initial_layer())
        avoiders_sequence(3, 1, 8, lower)
        with caplog.at_level(logging.WARNING, logger="seqlab.storage"):
            layer_store(rec, lower, tmp_path)
        assert any("keep-highest" in msg for msg in caplog.messages)
        assert layer_path(tmp_path, 3, 1).read_text() == kept
        assert layer_load(rec, tmp_path).n == 12

    def test_unreadable_checkpoint_is_replaced(self, tmp_path):
        rec, layer = stored_layer(tmp_path)
        path = layer_path(tmp_path, 3, 1)
        good = path.read_text()
        path.write_text("garbage\n")
        layer_store(rec, layer, tmp_path)
        assert path.read_text() == good

    def test_checkpoint_ahead_of_its_record_is_replaced(self, tmp_path):
        # the b-file was removed, so the record stored next is shorter
        stored_layer(tmp_path, n=12)
        cache_path(tmp_path, 3, 1).unlink()
        rec, layer = stored_layer(tmp_path, n=8)
        assert layer_load(rec, tmp_path) == layer

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        rec, _ = stored_layer(tmp_path)
        kept = layer_path(tmp_path, 3, 1).read_text()
        longer = record(terms=(*rec.terms, 0, 0, 0, 0, 0, 0, 0, 0))
        unwritable = Checkpoint(20, 5, {pack((20,), 2, 5): "not a count"})
        with pytest.raises(ValueError):
            layer_store(longer, unwritable, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["A_d3_r1.bfile", "A_d3_r1.layer"]
        assert layer_path(tmp_path, 3, 1).read_text() == kept

    def test_resumed_pass_reuses_the_validation_memo(self, tmp_path, monkeypatch):
        import seqlab.tableaux

        rec, _ = stored_layer(tmp_path, n=330)
        shapes = []
        original = seqlab.tableaux.syt_count
        monkeypatch.setattr(
            seqlab.tableaux, "syt_count", lambda shape: shapes.append(shape) or original(shape)
        )
        layer = layer_load(rec, tmp_path)
        tail = avoiders_sequence(3, 1, 370, layer)
        assert [*rec.terms, *tail] == [catalan(n) for n in range(371)]
        # the width (9 bits) is unchanged, so the pass reads the memo the
        # check filled: row 1 of 0..165 cells once, by the check, and of
        # 166..185 once, by the pass
        assert len(shapes) == len(set(shapes)) == 186
