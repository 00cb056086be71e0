"""The documented examples run: the package docstring and the README's python block."""

import doctest
import re
from pathlib import Path

import pulsespec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_docstring_and_readme_examples_run():
    result = doctest.testmod(pulsespec)
    assert result.failed == 0 and result.attempted >= 8
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
