"""The README's library example, run as written on a shorter stream, and the
module attributes it names."""

import importlib
import pkgutil
import re
from pathlib import Path

import twinbeam

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    # a fifth of the stream: 20 000 groups of 10 windows still certify
    assert block.count("1_000_000") == 1
    code = block.replace("1_000_000", "200_000")
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("NcdResult(")


def test_named_layer_attributes_exist():
    # every backticked `layer.name`, such as `models.window_click_law`, is
    # an attribute of that module of the package
    layers = [m.name for m in pkgutil.iter_modules(twinbeam.__path__)]
    named = set(re.findall(r"`(%s)\.(\w+)" % "|".join(layers),
                           README.read_text()))
    assert len(named) > 20, "the pattern finds too few names"
    missing = [f"{layer}.{name}" for layer, name in sorted(named)
               if not hasattr(importlib.import_module(f"twinbeam.{layer}"),
                              name)]
    assert missing == []
