"""Only the CLI turns results into bytes on the terminal.

`newsnet.cli` is the one module that prints: every other module returns
values (or logs through `logging`), and the CLI formats and writes them. A
manifest of what a command wrote can then be kept in that one place. This
guard finds every `print` call and every use of `sys.stdout` or `sys.stderr`
in `src/newsnet` and requires them all to be in `cli.py`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "newsnet"


def _output_sites() -> dict:
    found: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            printing = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "print")
            stream = (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                      and isinstance(node.value, ast.Name) and node.value.id == "sys")
            if printing or stream:
                found.setdefault(path.relative_to(SRC).as_posix(), []).append(node.lineno)
    return found


def test_only_the_cli_prints():
    sites = _output_sites()
    assert set(sites) - {"cli.py"} == set(), sites
