"""The repository scripts that CI runs beside the tests."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blank_comment_and_docstring_lines():
    source = '''"""A module
docstring."""

# a comment
x = 1  # code with a comment


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        return """a string
        that is not a docstring"""
'''
    assert _load("loc").code_lines(source) == 5  # x =, class, def, return and its string
