"""Every `fluctlab ...` line of the README's command block runs cleanly."""

import re
import shlex
from pathlib import Path

from fluctlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    text = README.read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("fluctlab ")
    ]


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        code = cli.run(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        assert "Traceback" not in out + err, argv
