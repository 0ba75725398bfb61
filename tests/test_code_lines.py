import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""
import math  # a trailing comment keeps the line

# a comment-only line


class Shape:
    """Class docstring."""

    sides = 0


def area(r):
    """Function docstring,

    with a blank line inside it.
    """
    text = """a multi-line string
    that is not a docstring"""
    return math.pi * r * r, text


async def wait():
    """Async docstring."""
'''


def test_counts_only_lines_that_hold_code():
    # import, class, sides, def, text (2 lines), return, async def
    assert code_lines.code_lines(FIXTURE) == 8


def test_a_string_after_the_first_statement_is_code():
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_prints_each_module_and_the_total(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
    assert {name for name, _ in rows[:-1]} == {
        path.name for path in code_lines.PACKAGE.glob("*.py")}
