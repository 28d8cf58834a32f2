"""The package root binds no names: each one is imported from its module."""

import ast
from pathlib import Path

INIT = Path(__file__).resolve().parents[1] / "src" / "trilevel" / "__init__.py"


def test_package_root_is_its_docstring_alone():
    body = ast.parse(INIT.read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
