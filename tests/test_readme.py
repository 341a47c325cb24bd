"""README's examples run as written."""

import re
from pathlib import Path

from soficlen.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang: str, heading: str) -> str:
    """The first ```lang code block after ``heading``."""
    section = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    exec(compile(_block("python", "## Quick start"), "README.md", "exec"), {})


def test_ini_example_validates(tmp_path, capsys):
    job = tmp_path / "job.ini"
    job.write_text(_block("ini", "## Command line"))
    assert main(["validate", str(job)]) == 0
    assert capsys.readouterr().out.startswith(f"{job}: ok\n")
