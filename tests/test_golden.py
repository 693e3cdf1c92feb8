"""The CLI contract as committed transcripts: every benchmark workload at
every shift, replayed in-process on a fresh cache directory, must give the
exit codes, stdout, stderr and cache files recorded in ``tests/golden/``
(rewritten by ``tests/golden/regenerate.py``)."""

import json
from pathlib import Path

import pytest

from golden.regenerate import replay

GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))


def test_every_workload_and_shift_has_a_transcript():
    assert len(GOLDEN) == 12


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_transcript_replays_byte_for_byte(path, tmp_path):
    commands = json.loads(path.read_text())["commands"]
    assert replay([c["argv"] for c in commands], tmp_path) == commands
