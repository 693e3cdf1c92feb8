"""Rewrite the golden CLI transcripts in this directory.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py

One transcript per benchmark workload and shift (``perfbench/workloads.py``,
shifts 0..SHIFTS-1): the workload's argv lists, ``{tmp}`` standing for a
fresh cache directory, replayed in-process through ``seqlab.cli.main``. For
each command a transcript holds its exit code, the sha256 and line count of
its stdout, its stderr verbatim, and the sha256 of every file in the cache
directory afterwards; the directory's path is masked as ``{tmp}`` in stdout
and stderr. ``tests/test_golden.py`` replays each transcript and expects
the same record, so an intended output change shows as a diff of these
files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import sys
import tempfile
from pathlib import Path

from seqlab import cli

HERE = Path(__file__).resolve().parent


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(argvs: list[list[str]], tmp: Path) -> list[dict]:
    """Run each argv, ``{tmp}`` replaced by ``tmp``, through
    ``seqlab.cli.main`` in turn, and return one record per command."""
    records = []
    # As in a process of its own, a warning such as keep-longest reaches
    # stderr through logging's last resort, not through handlers the host
    # process (pytest) put on the root logger.
    log = logging.getLogger("seqlab")
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        log.propagate = False
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main([arg.replace("{tmp}", str(tmp)) for arg in argv])
        finally:
            log.propagate = True
        stdout = out.getvalue().replace(str(tmp), "{tmp}")
        records.append({
            "argv": argv,
            "exit": rc,
            "stdout_sha256": _sha256(stdout.encode()),
            "stdout_lines": stdout.count("\n"),
            "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
            "files": {p.name: _sha256(p.read_bytes()) for p in sorted(tmp.iterdir())},
        })
    return records


def main() -> None:
    sys.path.insert(0, str(HERE.parents[1] / "perfbench"))
    from workloads import SHIFTS, WORKLOADS

    for name, workload in WORKLOADS.items():
        for shift in range(SHIFTS):
            argvs = [list(command.argv) for command in workload.build(shift)]
            with tempfile.TemporaryDirectory() as tmp:
                commands = replay(argvs, Path(tmp))
            path = HERE / f"{name}-{shift}.json"
            path.write_text(json.dumps({"workload": name, "shift": shift, "commands": commands}, indent=1) + "\n")
            print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
