"""The README's Python examples run in order and give the values their comments state,
and its config example parses to the defaults it claims."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

from abring.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
INI_BLOCK = re.compile(r"^```ini\n(.*?)^```", re.MULTILINE | re.DOTALL)


def literal_comments(source):
    """{line: value} for each comment after code on its line that is a Python literal."""
    found = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT or not tok.line[: tok.start[1]].strip():
            continue
        try:
            found[tok.start[0]] = ast.literal_eval(tok.string[1:].strip())
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
            pass  # prose, such as "# one row per overlap"
    return found


def described_expression(stmt):
    """The expression of a statement, or the argument of a ``print`` call."""
    assert isinstance(stmt, ast.Expr), f"README line {stmt.lineno}: a literal comment needs a value"
    expr = stmt.value
    if isinstance(expr, ast.Call) and getattr(expr.func, "id", None) == "print":
        (expr,) = expr.args
    return expr


def test_python_examples_give_the_commented_values():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) == 4
    namespace = {}
    checked = 0
    for source in blocks:
        comments = literal_comments(source)
        for stmt in ast.parse(source).body:
            if stmt.end_lineno not in comments:
                exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
                continue
            expected = comments.pop(stmt.end_lineno)
            expr = ast.Expression(described_expression(stmt))
            value = eval(compile(expr, "README.md", "eval"), namespace)
            line = ast.unparse(stmt)
            if isinstance(expected, float):
                assert value == pytest.approx(expected, rel=1e-12, abs=0.0), line
            else:
                assert value == expected, line
            checked += 1
        assert not comments, f"literal comments inside a statement: {comments}"
    assert checked == 9  # the README's literal comments, so none is skipped unseen


def test_config_example_parses_to_the_defaults():
    (text,) = INI_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert parse_config(text) == parse_config("")
