"""The README's library example, run as written on a shorter stream."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    # a fifth of the stream: 20 000 groups of 10 windows still certify
    assert block.count("1_000_000") == 1
    code = block.replace("1_000_000", "200_000")
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("NcdResult(")
