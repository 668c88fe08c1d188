"""The test configuration and the source tree's own hygiene."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coss

from conftest import blas_kernel

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


def test_blas_kernel_reads_the_kernel_openblas_runs():
    if blas_kernel() == "unknown":
        pytest.skip("no bundled OpenBLAS to read")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    proc = subprocess.run([sys.executable, "-c", "import conftest; print(conftest.blas_kernel())"],
                          cwd=ROOT / "tests", env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "Haswell"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pair_summary_on_fixed_numbers():
    summarize = load_script("bench_pair").summarize
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.0, 3.0, 6.0], "lower", 0.1)
    assert (s["rev_median"], s["rev_iqr"], s["change_median"], s["change_iqr"]) == (3.0, 2.0, 2.0, 1.0)
    assert s["ratio"] == 2.0 / 3.0
    # the tied pair (2.0, 2.0) is a win for neither side
    assert (s["change_wins"], s["rev_wins"], s["pairs"]) == (3, 1, 5)
    assert s["unresolved"]  # REV's IQR 2.0 exceeds the gap 1.0
    s = summarize([10.0, 10.0, 10.0], [11.0, 12.0, 9.0], "higher", 0.1)
    assert (s["rev_median"], s["rev_iqr"], s["change_median"]) == (10.0, 0.0, 11.0)
    assert (s["change_wins"], s["rev_wins"]) == (2, 1)
    assert not s["unresolved"] and not s["unchanged"]
    # every pair tied: unchanged, however wide REV's spread
    s = summarize([0.5, 0.75, 0.75, 1.0], [0.5, 0.75, 0.75, 1.0], "higher", 0.1)
    assert s["unchanged"] and not s["unresolved"] and not s["worse"]
    assert (s["rev_iqr"], s["change_wins"], s["rev_wins"]) == (0.125, 0, 0)


def test_bench_pair_rounds_on_fixed_numbers(tmp_path):
    bench_pair = load_script("bench_pair")
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    body = {"samples": {"pipeline_s": [6.6, 6.7, 6.8], "peak_rss_mb": [68.7, 137.0, 155.6]}}
    (out / "e2e-wide_cli-seed2.json").write_text(json.dumps(body), encoding="utf-8")
    assert bench_pair.read_rounds(tmp_path, "wide_cli", 2) == 3
    with pytest.raises(bench_pair.PairError, match="seed 3"):
        bench_pair.read_rounds(tmp_path, "wide_cli", 3)

    runs = [{"side": side, "seed": seed, "rounds": rounds}
            for side, seed, rounds in [("rev", 1, 3), ("change", 1, 3), ("change", 2, 4),
                                       ("rev", 2, 3), ("rev", 3, 4), ("change", 3, 4)]]
    rounds = bench_pair.rounds_by_side(runs)
    assert rounds == {"rev": [3, 3, 4], "change": [3, 4, 4], "differing_pairs": 1}

    summary = {name: bench_pair.summarize([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "lower", 0.05)
               for name in ("pipeline_s", "peak_rss_mb")}
    lines = bench_pair.table({"wide_cli": {"summary": summary, "rounds": rounds}}).splitlines()
    assert lines[0].split("\t")[-1] == "rounds"
    assert lines[1].split("\t")[-3:] == ["unchanged", "within", "3-4 / 3-4"]
    assert lines[2].split("\t")[-1] == "3-4 / 3-4 (differ in 1/3 pairs)"


@pytest.mark.parametrize("better,change,worse", [
    # REV's median is 4.0 and the bound a quarter of it: 1.0 either way
    ("lower", [4.0, 4.9, 5.0], False),
    ("lower", [4.0, 5.1, 5.1], True),
    ("lower", [1.0, 1.0, 1.0], False),
    ("higher", [3.0, 3.1, 4.0], False),
    ("higher", [2.9, 2.9, 4.0], True),
    ("higher", [9.0, 9.0, 9.0], False),
])
def test_bench_pair_flags_a_median_worse_than_its_bound(better, change, worse):
    summary = load_script("bench_pair").summarize([3.0, 4.0, 5.0], change, better, 0.25)
    assert summary["worse"] is worse


def test_bench_pair_rejects_a_bad_revision_before_any_run(monkeypatch, capsys):
    bench_pair = load_script("bench_pair")

    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pair, "run_pairs", no_run)
    monkeypatch.setattr(bench_pair, "export", no_run)
    assert bench_pair.main(["--against", "no-such-revision", "--record", "never"]) != 0
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (ROOT / "BENCH_never.json").exists()
