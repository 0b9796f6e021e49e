"""README's code runs as written against the library and the CLI.

The ``python`` library tour runs as one script, so a tour that imports
or calls a name the library no longer has fails here. Each
``chunkfuse segment``, ``pipeline``, ``ablate`` and ``probe`` line of
README's command block goes through ``cli.main`` in a temporary working
directory, with the shipped corpora given by absolute path, and must
exit 0. ``bench``, which times 64k-token documents, and ``rouge``, which
reads files the README only names, are parsed but not run, so a flag
renamed in either still fails here. Config flags reach argparse as text,
so a parsed command that takes them also builds its config: a mistyped
value fails here too.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from chunkfuse.cli import _build_parser, build_config, main
from chunkfuse.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("segment", "pipeline", "ablate", "probe")
PARSED = ("bench", "rouge")


def readme_text() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def readme_commands() -> dict[str, list[str]]:
    block = re.search(r"```bash\n(chunkfuse .*?)```", readme_text(), re.S).group(1)
    commands = {}
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)[1:]
        commands.setdefault(argv[0], argv)
    return commands


def test_readme_lists_every_checked_command():
    assert set(CHECKED + PARSED) <= set(readme_commands())


def test_every_subcommand_is_checked_or_parsed():
    (subcommands,) = [action.choices for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert sorted(CHECKED + PARSED) == sorted(subcommands)


@pytest.mark.parametrize("command", CHECKED)
def test_readme_command_exits_zero(command, tmp_path, monkeypatch, capsys):
    argv = [str(ROOT / a) if a.startswith("corpora/") else a
            for a in readme_commands()[command]]
    monkeypatch.chdir(tmp_path)  # a relative --out-dir lands under tmp_path
    assert main(argv) == 0, capsys.readouterr().err


def parse_checked(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed, with its config built if the command takes config flags."""
    args = _build_parser().parse_args(argv)
    if hasattr(args, "config"):
        build_config(args)
    return args


@pytest.mark.parametrize("command", PARSED)
def test_readme_command_parses(command):
    assert parse_checked(readme_commands()[command]).command == command


def test_parse_check_rejects_a_mistyped_config_value():
    argv = ["bench", "--lengths", "8192,16384,32768,65536", "--d-model", "3x"]
    with pytest.raises(ConfigError, match="--d-model '3x': not a JSON value"):
        parse_checked(argv)


def test_readme_library_tour_runs(capsys):
    text = readme_text()
    tour = re.search(r"```python\n(.*?)```", text, re.S)
    # padded so that a traceback names README's own line numbers
    source = "\n" * text.count("\n", 0, tour.start(1)) + tour.group(1)
    exec(compile(source, str(ROOT / "README.md"), "exec"), {"__name__": "readme_tour"})
    assert capsys.readouterr().out
