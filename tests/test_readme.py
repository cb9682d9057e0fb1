"""The README's Python examples run as written, so a name the quick tour
uses cannot be renamed or deleted unnoticed."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text(encoding="utf-8")
# (first line number, code) of each fenced python block
BLOCKS = [(_TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.S | re.M)]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"README.md:{line}" for line, _ in BLOCKS])
def test_readme_example_runs(line, code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # padded so a traceback names the README's own line numbers
        exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})
    # a print whose line ends in a comment shows what it prints
    printed = out.getvalue().splitlines()
    for shown in re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M):
        assert shown in printed


def test_readme_lists_the_public_names():
    import speedup_learning

    listed = _TEXT[_TEXT.index("The package's top level exports"):]
    listed = listed[:listed.index("\n\n")]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(speedup_learning.__all__)
