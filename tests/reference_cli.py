"""The command line read by argparse, as cli.ROWS states it.

The library reads an argv with cli._parse, a single pass over the ROWS
table.  This is the argparse reading of the same table, kept for the
tests only: the oracle that _parse is checked against.  An argv whose
COMMAND and TARGET come first goes straight to its row's parser; any
other is first read by a parser that knows every flag only as taking one
value, to find its row.
"""

import argparse

from qtelescope.cli import ROWS


def row_parser(command: str, target: str) -> argparse.ArgumentParser:
    """The parser of one row: it accepts that row's flags and no other."""
    parser = argparse.ArgumentParser(prog=f"qtelescope {command} {target}")
    parser.add_argument("command", help=argparse.SUPPRESS)
    parser.add_argument("target", help=argparse.SUPPRESS)
    adds_to = {None: parser}
    for flag in ROWS[command, target][0]:
        if flag.group not in adds_to:
            adds_to[flag.group] = parser.add_mutually_exclusive_group()
        adds_to[flag.group].add_argument(
            flag.name, type=flag.type, required=flag.required, default=flag.default,
            choices=flag.choices, metavar=flag.metavar, help=flag.help)
    return parser


def find_row(argv: list[str]) -> tuple[str, str]:
    """The row of an argv whose COMMAND and TARGET stand among the flags (each
    known here only as taking one value); exits 0 on --help, else 2, if none."""
    parser = argparse.ArgumentParser(
        prog="qtelescope", add_help=False,
        epilog="rows:\n" + "\n".join(f"  {c} {t}" for c, t in ROWS),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-h", "--help", action="store_true")
    for i, name in enumerate(("COMMAND", "TARGET")):
        parser.add_argument(name.lower(), nargs="?", metavar=name,
                            choices=list(dict.fromkeys(row[i] for row in ROWS)))
    for name in dict.fromkeys(f.name for flags, _ in ROWS.values() for f in flags):
        parser.add_argument(name, help=argparse.SUPPRESS)
    words, _ = parser.parse_known_intermixed_args(argv)
    if (words.command, words.target) in ROWS:
        return words.command, words.target
    if words.help:
        parser.print_help()
        parser.exit()
    parser.error(f"{words.command} has no target {words.target}" if words.target
                 else "COMMAND and TARGET are required")


def parse(argv: list[str]) -> tuple[tuple[str, str], dict]:
    """The row of argv and its flags' values, keyed as cli._parse keys them;
    raises SystemExit where argparse exits."""
    row = tuple(argv[:2]) if tuple(argv[:2]) in ROWS else find_row(argv)
    values = vars(row_parser(*row).parse_args(argv))
    del values["command"], values["target"]
    return row, values
