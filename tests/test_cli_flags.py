"""Every option of every ``subriem`` subcommand is read by that command: as
``args.<dest>`` in its ``_cmd_*`` function or in a helper the function passes
``args`` to.  A flag that no code reads is accepted and ignored, so a user who
sets it learns nothing; this test keeps such flags from coming back.  The
reads are taken from the source of ``cli.py``."""

import argparse
import ast
from pathlib import Path

from subriem import cli


def _functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse(Path(cli.__file__).read_text())
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _reads(name: str, functions, seen: set[str]) -> set[str]:
    """The attributes of ``args`` read in function ``name`` and in every
    function of ``cli.py`` it passes ``args`` to."""
    if name in seen or name not in functions:
        return set()
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(isinstance(arg, ast.Name) and arg.id == "args" for arg in node.args)):
            reads |= _reads(node.func.id, functions, seen)
    return reads


def test_every_flag_has_a_reader():
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    functions = _functions()
    unread = []
    for name, sub in commands.items():
        reads = _reads(sub.get_default("func").__name__, functions, set())
        unread += [f"{name} {action.dest}" for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)
                   and action.dest not in reads]
    assert unread == []


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    assert cli.main(["locus", "--grid", "1x1"]) == 0
    assert cli.main(["locus", "--grid", "1x1", "--format", "json"]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
