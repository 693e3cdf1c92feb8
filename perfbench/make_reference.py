"""Regenerate the benchmark's reference data from the seqlab engine.

Run from the repository root:

    python3 perfbench/make_reference.py

Writes ``perfbench/data``:

- ``d5_r2.txt`` and ``d4_r2.txt``: exact terms ``n a(n)`` from the layered
  engine, each checked against the brute-force oracle wherever the word
  count is at most 10^6;
- ``d4_r2.rec``: the order-4, degree-7 recurrence that ``guess`` finds from
  terms 0..80, checked here on every reference term;
- ``constants.json``: the Richardson estimate of the (4, 2) growth constant
  from the recurrence extended to index 800.

The benchmark checks program output against these files, so they are
regenerated only when the benchmark's reach grows, never to match a change
in the program's output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(ROOT / "src"))

from seqlab.growth import conjectured_params, estimate_constant  # noqa: E402
from seqlab.oracle import brute_count, total_words  # noqa: E402
from seqlab.recurrences import extend, format_recurrence, guess, verify  # noqa: E402
from seqlab.tableaux import avoiders_sequence  # noqa: E402

BRUTE_LIMIT = 10**6
# (d, r) -> highest index kept; each is well past the largest --nmax a seed
# can give the workload that reads it, so a guessed recurrence is checked
# on terms it never saw.
REACH = {(5, 2): 85, (4, 2): 120}


def main() -> int:
    DATA.mkdir(exist_ok=True)
    terms = {}
    for (d, r), top in REACH.items():
        seq = avoiders_sequence(d, r, top)
        for n, value in enumerate(seq):
            if total_words(r, n) > BRUTE_LIMIT:
                break
            if brute_count(d, r, n, budget=None) != value:
                raise SystemExit(f"engine and oracle disagree at d={d} r={r} n={n}")
        terms[d, r] = seq
        lines = [f"# avoider counts d={d} r={r}, n = 0..{top}, exact"]
        lines += [f"{n} {value}" for n, value in enumerate(seq)]
        (DATA / f"d{d}_r{r}.txt").write_text("\n".join(lines) + "\n")
        print(f"d={d} r={r}: {top + 1} terms", flush=True)

    seq42 = terms[4, 2]
    rec = guess(seq42[:81], max_order=4, max_degree=8)
    if rec is None or not verify(rec, seq42):
        raise SystemExit("no (4, 2) recurrence that holds on every reference term")
    (DATA / "d4_r2.rec").write_text(format_recurrence(rec))
    long_run = extend(rec, seq42[: rec.order + rec.offset], 800)
    estimate = estimate_constant(long_run, conjectured_params(4, 2))
    (DATA / "constants.json").write_text(
        json.dumps({"d4_r2_constant": estimate.estimates[-1]}, indent=2) + "\n"
    )
    print(f"(4, 2) recurrence order {rec.order} degree {rec.degree}; "
          f"constant {estimate.estimates[-1]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
