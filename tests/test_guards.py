"""Repository guards: the README's flag table and the modules' imports stay honest."""

import argparse
import ast
import re
from pathlib import Path

from qmwis.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def _flags_by_subcommand() -> dict[str, set[str]]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in subparser._actions for flag in action.option_strings}
        for name, subparser in sub.choices.items()
    }


def _readme_flag_table() -> dict[str, set[str]]:
    """Flag -> subcommands, from the rows of the README's shared-flag table."""
    table = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        if not line.startswith("| `--"):
            continue
        flag_cell, subcommand_cell = line.split("|")[1:3]
        flag = re.search(r"`(--[\w-]+)", flag_cell).group(1)
        table[flag] = set(re.findall(r"`([\w-]+)`", subcommand_cell))
    return table


def test_readme_flag_table_matches_the_parser():
    accepted = _flags_by_subcommand()
    table = _readme_flag_table()
    assert table, "the README has no flag table"
    for flag, subcommands in table.items():
        assert subcommands == {name for name, flags in accepted.items() if flag in flags}, flag
    shared = {
        flag
        for flags in accepted.values()
        for flag in flags
        if flag not in ("-h", "--help") and sum(flag in f for f in accepted.values()) > 1
    }
    assert shared <= set(table), sorted(shared - set(table))


def test_modules_import_only_names_they_use():
    unused = []
    for path in sorted((ROOT / "src" / "qmwis").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            imported.update((name, node.lineno) for name in names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
