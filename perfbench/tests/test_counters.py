"""Self-tests of the benchmark: counters repeat, shape counts match the
partition count, missing hook points are absent rather than fatal, the
reference data agree with brute force, and the output checks reject wrong
output.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import seqlab.cli as cli  # noqa: E402
from seqlab.oracle import brute_count, total_words  # noqa: E402
from seqlab.partitions import partitions_upto_length  # noqa: E402

import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DATA,
    WORKLOADS,
    Command,
    OutputError,
    catalan,
    check_check,
    check_gessel,
    check_guess_file,
    check_seq,
    parse_recurrence,
    read_terms,
    residuals_vanish,
)


def _any(rc, out, tmp):
    if rc not in (0, 1):
        raise AssertionError(rc)


def _cmd(metric, text, nmax, check=_any):
    return Command(metric, tuple(text.split()), nmax, check)


# Counters that must repeat exactly on identical inputs.
DETERMINISTIC = (
    "tableaux.advance_calls",
    "tableaux.shapes_total",
    "tableaux.shapes_max",
    "tableaux.top_bits",
    "partitions.syt_calls",
    "storage.hit",
    "storage.partial",
    "storage.miss",
    "storage.bytes_written",
    "recurrences.extend_terms",
    "growth.top_bits",
    "bessel.count_calls",
    "oracle.words",
)

C = "--cache-dir {tmp}"
REF42 = read_terms("d4_r2.txt")
# A small pipeline that reaches every hook point.
PIPELINE = [
    _cmd("a", f"seq --d 3 --r 1 --nmax 30 {C}", 30, check_seq(lambda n: [catalan(i) for i in range(n + 1)], 30)),
    _cmd("b", f"seq --d 3 --r 1 --nmax 40 {C}", 40),
    _cmd("c", f"asym --d 3 --r 1 --nmax 40 {C}", 40),
    _cmd("d", "gessel --k 3 --nmax 10", 10, check_gessel(10)),
    _cmd("e", f"seq --d 4 --r 2 --nmax 60 {C}", 60),
    _cmd("f", "check --d 4 --r 2 --nmax 4", 4, check_check(REF42, 4)),
    _cmd("g", f"guess --d 4 --r 2 --nmax 60 --max-order 4 --max-degree 7 --out {{tmp}}/r.rec {C}", 60,
         check_guess_file(REF42, "r.rec")),
    _cmd("h", f"extend --d 4 --r 2 --nmax 120 --rec {{tmp}}/r.rec --store {C}", 120),
    _cmd("i", f"asym --d 4 --r 2 --nmax 120 {C}", 120),
]


def traced_counters(commands):
    tracer = Tracer()
    results = run.run_iteration(cli, commands, tracer)
    assert all(sample.problem is None for sample in results.values()), results
    return tracer, tracer.metrics(0, tracer.mark())


def test_counters_repeat_exactly():
    _, first = traced_counters(PIPELINE)
    _, second = traced_counters(PIPELINE)
    assert set(first) == set(LAYER_METRICS)
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    assert first["tableaux.advance_calls"] > 0
    assert first["storage.hit"] and first["storage.partial"] and first["storage.miss"]
    assert first["bessel.count_calls"] == 11
    assert first["oracle.words"] == sum(REF42[:5])


def dominating_partitions(d: int, r: int, i: int) -> int:
    """Partitions of r*i with at most d-1 parts that dominate (r^i)."""
    count = 0
    for shape in partitions_upto_length(r * i, d - 1):
        partial = 0
        for j, part in enumerate(shape, start=1):
            partial += part
            if partial < r * min(j, i):
                break
        else:
            count += 1
    return count


@pytest.mark.parametrize("d, r, n", [(3, 1, 14), (4, 1, 12), (3, 2, 12), (4, 2, 10), (5, 2, 8), (4, 3, 6)])
def test_shapes_per_layer_match_partition_count(d, r, n):
    tracer, _ = traced_counters([_cmd("s", f"seq --d {d} --r {r} --nmax {n} {C}", n)])
    advance = tracer.hook_ids["tableaux.advance_layer"]
    shapes = [tracer.span_attrs[i]["shapes"] for i in range(tracer.mark()) if tracer.span_hook[i] == advance]
    assert shapes == [dominating_partitions(d, r, i) for i in range(1, n + 1)]


def test_missing_hook_point_is_absent(monkeypatch):
    import seqlab.tableaux

    monkeypatch.delattr(seqlab.tableaux, "syt_count")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"tableaux.syt_count"}
    gone = {"partitions.syt_s", "partitions.syt_calls"}
    assert set(tracer.metrics(0, 0)) == set(LAYER_METRICS) - gone


class ItemsOnly:
    """A layer table that the engine can still use but that has no len()."""

    def __init__(self, table):
        self.table = table

    def items(self):
        return self.table.items()


def test_unreadable_counts_are_absent(monkeypatch):
    import seqlab.tableaux

    original = seqlab.tableaux.advance_layer
    monkeypatch.setattr(seqlab.tableaux, "advance_layer", lambda *a: ItemsOnly(original(*a)))
    tracer, metrics = traced_counters(
        [_cmd("s", f"seq --d 3 --r 1 --nmax 12 {C}", 12, check_seq(lambda n: [catalan(i) for i in range(n + 1)], 12))]
    )
    assert tracer.uncounted == {"tableaux.advance_layer"}
    assert metrics["tableaux.advance_calls"] == 12
    assert not {"tableaux.shapes_total", "tableaux.shapes_max", "tableaux.top_bits"} & set(metrics)


@pytest.mark.parametrize("name, d", [("d5_r2.txt", 5), ("d4_r2.txt", 4)])
def test_reference_terms_match_brute_force(name, d):
    terms = read_terms(name)
    checked = [n for n in range(len(terms)) if total_words(2, n) <= 10**6]
    assert checked == list(range(6))
    assert [brute_count(d, 2, n, budget=None) for n in checked] == terms[: len(checked)]


def test_reference_recurrence_holds_beyond_its_guess_window():
    rec, offset = parse_recurrence((DATA / "d4_r2.rec").read_text())
    assert len(REF42) > 81 + 20
    assert residuals_vanish(rec, offset, REF42)
    broken = REF42[:100] + [REF42[100] + 1] + REF42[101:]
    assert not residuals_vanish(rec, offset, broken)


def test_output_checks_reject_wrong_output(tmp_path):
    seq, check, guess = WORKLOADS["hard-r2"].build(0)
    good = "\n".join(str(t) for t in read_terms("d5_r2.txt")[:45]) + "\n"
    seq.check(0, good, tmp_path)
    for rc, out in ((1, good), (0, good.replace("\n1\n", "\n2\n", 1)), (0, good + "7\n")):
        with pytest.raises(OutputError):
            seq.check(rc, out, tmp_path)
    with pytest.raises(OutputError):
        guess.check(0, "ORDER 1 DEGREE 0 OFFSET 0\n-1\n1\n", tmp_path)

    extend = WORKLOADS["discover-r2"].build(0)[2]
    terms = read_terms("d4_r2.txt")
    rec, offset = parse_recurrence((DATA / "d4_r2.rec").read_text())
    from workloads import _poly

    for n in range(len(terms) - len(rec) + 1, 601 - len(rec) + 1):
        acc = sum(_poly(p, n) * terms[n + i] for i, p in enumerate(rec[:-1]))
        terms.append(-acc // _poly(rec[-1], n))
    extend.check(0, "\n".join(map(str, terms)), tmp_path)
    terms[500] += 1
    with pytest.raises(OutputError):
        extend.check(0, "\n".join(map(str, terms)), tmp_path)
