"""Docs hygiene: the README's CLI synopsis names the parser's options, and
its library sketch runs.

Each subcommand line in the code block under ``## CLI`` (with its
indented continuation lines) must list exactly the ``--options`` that
``build_parser`` gives that subcommand, ``--help`` aside.  The python
block under ``## Library sketch`` runs as it is, asserts included.
"""

import argparse
import re
from pathlib import Path

from contana.report_cli import build_parser

README = Path(__file__).parents[1] / "README.md"


def synopsis_options(text: str) -> dict:
    """{subcommand: set of --options} from the first code block under ## CLI."""
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1]
    options = {}
    command = None
    for line in block.splitlines():
        if line.startswith("contana "):
            command = line.split()[1]
            options[command] = set()
        if command is not None:
            options[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return options


def parser_options() -> dict:
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, p in sub.choices.items()}


def test_readme_synopsis_matches_parser():
    assert synopsis_options(README.read_text()) == parser_options()


def test_synopsis_reader_joins_continuation_lines():
    text = ("## CLI\n\n```\ncontana a --x X [--y Y]\n"
            "          [--z-w Z]\ncontana b\n```\n")
    assert synopsis_options("\n" + text) == {"a": {"--x", "--y", "--z-w"},
                                             "b": set()}


def library_sketch(text: str) -> str:
    """The first python code block under ## Library sketch."""
    section = text.split("\n## Library sketch\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_sketch_runs():
    exec(compile(library_sketch(README.read_text()), "README.md", "exec"), {})
