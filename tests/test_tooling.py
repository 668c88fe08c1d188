"""The test configuration and the source tree's own hygiene."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import coss

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(coss.__file__).parent.glob("*.py"))

FAILING_GIVEN = '''
import warnings

from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_property_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass


def test_a_warning_still_fails():
    warnings.warn("a deprecation of our own", DeprecationWarning)
'''


def test_failing_property_is_reported_as_a_failure(tmp_path):
    # hypothesis's failure report imports libcst, which imports a deprecated
    # mypy_extensions name; under "error" that aborted the whole session
    test_file = tmp_path / "test_failing_given.py"
    test_file.write_text(FAILING_GIVEN, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out, out
    assert "FAILED test_failing_given.py::test_a_warning_still_fails" in out, out


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports but never reads, bar those on a ``# noqa: F401`` line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    # a package's __init__ imports its public names to re-export them
    found = {
        path.name: unused
        for path in SOURCES
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_unused_import_check_sees_an_unused_name():
    source = "import os\nimport sys  # noqa: F401\nfrom a import b, c\nprint(b)\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 1)"]
