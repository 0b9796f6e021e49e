"""README's command lines run as written against the CLI.

Each ``chunkfuse segment``, ``pipeline``, ``ablate`` and ``probe`` line of
README's command block goes through ``cli.main`` in a temporary working
directory, with the shipped corpora given by absolute path, and must
exit 0. ``bench`` is left out because it times 64k-token documents, and
``rouge`` because it reads files the README only names.
"""

import re
import shlex
from pathlib import Path

import pytest

from chunkfuse.cli import main

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("segment", "pipeline", "ablate", "probe")


def readme_commands() -> dict[str, list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```bash\n(chunkfuse .*?)```", text, re.S).group(1)
    commands = {}
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)[1:]
        commands.setdefault(argv[0], argv)
    return commands


def test_readme_lists_every_checked_command():
    assert set(CHECKED) <= set(readme_commands())


@pytest.mark.parametrize("command", CHECKED)
def test_readme_command_exits_zero(command, tmp_path, monkeypatch, capsys):
    argv = [str(ROOT / a) if a.startswith("corpora/") else a
            for a in readme_commands()[command]]
    monkeypatch.chdir(tmp_path)  # a relative --out-dir lands under tmp_path
    assert main(argv) == 0, capsys.readouterr().err
