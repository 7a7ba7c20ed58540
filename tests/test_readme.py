"""The README's library example runs, and every exported name exists."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("module", ["mvinpaint", "mvinpaint.manifolds"])
def test_star_import_gives_every_exported_name(module):
    # a name in __all__ that the module lacks makes the import raise
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
