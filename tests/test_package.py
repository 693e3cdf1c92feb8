import re
import subprocess
import sys
from pathlib import Path

import seqlab
from seqlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_public_api_is_what_the_readme_calls():
    called = set(re.findall(r"\bseqlab\.(\w+)\(", _library_block()))
    assert called == set(seqlab.__all__)
    for name in called:
        assert callable(getattr(seqlab, name)), name


def test_runs_on_the_standard_library_alone(tmp_path, capsys):
    # -S leaves site-packages off sys.path, -E ignores PYTHONPATH: the child
    # sees seqlab's source and the standard library, nothing else
    argv = ["asym", "--d", "3", "--r", "1", "--nmax", "60", "--cache-dir"]
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        f"from seqlab.cli import main; sys.exit(main({argv + [str(tmp_path / 'alone')]!r}))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert main(argv + [str(tmp_path / "in-process")]) == 0
    assert child.stdout == capsys.readouterr().out
