"""The README's command-line quick start runs as written."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quickstart_commands():
    """The command lines of the first code block under "## Command line"."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
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
