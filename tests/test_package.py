import re
from pathlib import Path

import seqlab

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_public_api_is_what_the_readme_calls():
    called = set(re.findall(r"\bseqlab\.(\w+)\(", _library_block()))
    assert called == set(seqlab.__all__)
    for name in called:
        assert callable(getattr(seqlab, name)), name
