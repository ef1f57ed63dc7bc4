"""The README's examples, run: each `adiclab ...  # <output>` line through
`cli.main`, and each python block, whose trailing comments that are
literals must equal the values of their lines."""

import ast
import io
import re
import shlex
import tokenize
from fractions import Fraction
from pathlib import Path

from adiclab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def cli_mismatches(text: str, capsys) -> tuple[list[str], list[tuple]]:
    """The CLI lines with an output comment, and those whose stdout differs."""
    checked, wrong = [], []
    for block in code_blocks(text, "bash"):
        for line in block.splitlines():
            if m := re.fullmatch(r"adiclab (.+?)\s+# (\S+)", line):
                args, want = m.groups()
                checked.append(args)
                code = main(shlex.split(args))
                got = capsys.readouterr().out
                if (code, got) != (0, want + "\n"):
                    wrong.append((args, want, code, got))
    return checked, wrong


# Names a literal comment may use, such as `Fraction(262, 4095)`.
LITERAL_NAMES = {"__builtins__": {}, "Fraction": Fraction}


def literal(comment: str) -> tuple | None:
    """(value,) of a comment made of literals and Fraction calls, such as
    `((), (0, 3))`; None for prose such as `exact reconstruction`."""
    try:
        return (eval(comment, LITERAL_NAMES),)
    except (SyntaxError, NameError, TypeError, ValueError):
        return None


def python_mismatches(text: str) -> tuple[list[str], list[tuple]]:
    """Run the python blocks in order, in one namespace, as a session that
    reads the README would; return the literal comments checked, and the
    (line, comment, value) of each that its line's value does not equal."""
    checked, wrong, namespace = [], [], {}
    for block in code_blocks(text, "python"):
        comments = {
            tok.start[0]: tok.string.lstrip("#").strip()
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT
        }
        for stmt in ast.parse(block).body:
            comment = comments.get(stmt.end_lineno, "")
            if isinstance(stmt, ast.Expr) and (want := literal(comment)) is not None:
                checked.append(comment)
                got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                if got != want[0]:
                    wrong.append((ast.unparse(stmt), comment, got))
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return checked, wrong


def test_cli_examples_print_their_comments(capsys):
    checked, wrong = cli_mismatches(README.read_text(), capsys)
    assert checked == ["construct --mean 0 --length 10", "construct --tau 1/2,1/2,0,0 --length 6", "construct --rational 1/3 --length 5"]
    assert wrong == []


def test_python_examples_equal_their_comments():
    checked, wrong = python_mismatches(README.read_text())
    assert checked == ["((), (0, 3))", "1.0", "((), (0, 1, 0, 0, 1, 2))", "Fraction(262, 4095)"]
    assert wrong == []


def test_a_changed_example_output_is_caught(capsys):
    text = README.read_text()
    for old, new in [("# 010101", "# 010102"), ("# 11111", "# 1111")]:
        assert old in text
        assert len(cli_mismatches(text.replace(old, new), capsys)[1]) == 1
    for old, new in [("# 1.0", "# 0.5"), ("# Fraction(262, 4095)", "# Fraction(263, 4095)")]:
        assert old in text
        assert len(python_mismatches(text.replace(old, new))[1]) == 1
