"""The README's command-line quick start runs as written, its lists of
subcommands and scripts match what exists, and its config file is the one
``render_config`` writes."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from coss.cli import build_parser
from coss.config import DistillConfig, render_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def quickstart_commands():
    """The command lines of the first code block under "## Command line"."""
    section = README.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_command_line_quick_start_runs(tmp_path):
    commands = quickstart_commands()
    assert commands[0][:2] == ["python", "scripts/make_benchmark_files.py"]
    assert sum(argv[0] == "coss" for argv in commands) >= 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for argv in commands:
        if argv[0] == "coss":
            argv = [sys.executable, "-m", "coss.cli", *argv[1:]]
        else:
            argv = [sys.executable, str(ROOT / argv[1]), *argv[2:]]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)


def test_listed_subcommands_are_the_parsers():
    listed = re.search(r"`coss` has \w+ subcommands: ([^.]*)\.", README).group(1)
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert re.findall(r"`(\w+)`", listed) == list(subparsers.choices)


def test_named_scripts_exist_and_every_script_is_named():
    named = set(re.findall(r"scripts/[\w.-]+", README))
    assert named, "README names no script"
    assert {p for p in named if not (ROOT / p).is_file()} == set()
    present = {f"scripts/{p.name}" for p in (ROOT / "scripts").iterdir() if p.is_file()}
    assert present - named == set()


def test_layout_names_every_module():
    block = README.split("## Layout", 1)[1].split("```", 2)[1]
    package = block.split("src/coss/\n", 1)[1].split("\nscripts/", 1)[0]
    listed = re.findall(r"^  (\w+\.py) ", package, flags=re.M)
    present = [p.name for p in (ROOT / "src" / "coss").glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(present)


def test_every_documented_command_parses():
    blocks = README.split("```")[1::2]
    lines = [ln for b in blocks for ln in b.replace("\\\n", " ").splitlines() if ln.startswith("coss ")]
    assert len(lines) >= 8
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])  # SystemExit on an unknown option


def test_config_file_block_is_the_rendered_default():
    section = README.split("## Config file", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    assert block == render_config(DistillConfig())
    keys = re.findall(r"^\* `(\w+)`:", section.split("## ", 1)[0], flags=re.M)
    assert keys == re.findall(r"^(\w+) = ", block, flags=re.M)
