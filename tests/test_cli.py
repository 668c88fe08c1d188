"""End-to-end command behaviour: artifacts, exit codes, determinism."""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coss.cli
from coss.benchmark import benchmark_config, make_benchmark_dataset, make_benchmark_teacher
from coss.cli import main
from coss.config import render_config
from coss.data import Dataset
from coss.io import (
    encode_dataset,
    parse_report,
    read_dataset,
    read_report,
    write_dataset,
    write_model,
)
from coss.models import MlpSpec, forward, init_model

from conftest import corruptions

CONFIG_TEXT = (
    "[distill]\n"
    "epochs = 2\n"
    "batch_size = 5\n"
    "k = 1\n"
    "pool = 2\n"
    "lr = 0.2\n"
    "aug_sigma = 0.0\n"
    "seed = 7\n"
    "\n"
    "[student]\n"
    "hidden_dims = 6\n"
    "output_dim = 3\n"
    "activation = tanh\n"
)


@pytest.fixture
def workspace(tmp_path):
    """Dataset file, teacher checkpoint, teacher dump, config, index."""
    rng = np.random.default_rng(12)
    centers = np.array([[4.0, 0, 0, 0], [0, 4.0, 0, 0]])
    inputs = np.vstack(
        [centers[i % 2] + 0.2 * rng.normal(size=4) for i in range(20)]
    ).astype(np.float32).astype(np.float64)
    labels = np.arange(20) % 2
    dataset = Dataset(inputs, labels)
    teacher = init_model(MlpSpec((4, 3), output_activation="identity"), seed=1)
    emb, _ = forward(teacher, inputs)

    paths = {
        "data": tmp_path / "data.cssd",
        "teacher": tmp_path / "teacher.cssm",
        "dump": tmp_path / "teacher_emb.cssd",
        "config": tmp_path / "run.ini",
        "index": tmp_path / "nn.cssk",
        "root": tmp_path,
    }
    write_dataset(paths["data"], dataset)
    write_model(paths["teacher"], teacher)
    write_dataset(paths["dump"], Dataset(emb.astype(np.float32).astype(np.float64)))
    paths["config"].write_text(CONFIG_TEXT, encoding="utf-8")
    assert (
        main(
            [
                "precompute",
                "--data", str(paths["data"]),
                "--teacher", str(paths["teacher"]),
                "--pool", "2",
                "--out", str(paths["index"]),
            ]
        )
        == 0
    )
    return paths


@pytest.fixture
def diverging_bench(tmp_path):
    """The bundled benchmark, indexed, with a config whose lr of 1e300 diverges at once.

    The benchmark's 8-D student trains through a head to its 16-D teacher;
    at lr 1e300 the head is the first to see the overflow.  ``args`` are the
    inputs that ``distill`` and ``ablate`` share.
    """
    data, teacher = tmp_path / "bench.cssd", tmp_path / "teacher.cssm"
    index, config = tmp_path / "nn.cssk", tmp_path / "diverge.ini"
    write_dataset(data, make_benchmark_dataset())
    write_model(teacher, make_benchmark_teacher())
    config.write_text(render_config(benchmark_config(lr=1e300, epochs=2)), encoding="utf-8")
    inputs = ["--data", str(data), "--teacher", str(teacher)]
    assert main(["precompute", *inputs, "--pool", "16", "--out", str(index)]) == 0
    return {"root": tmp_path, "args": [*inputs, "--config", str(config), "--index", str(index)]}


def run_coss(*argv):
    """Exit code and stderr of ``coss *argv`` in a fresh interpreter, warnings shown as a user sees them."""
    env = dict(os.environ)
    src = str(Path(coss.cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "coss.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr


def run_distill(paths, out_name="run"):
    out_dir = paths["root"] / out_name
    code = main(
        [
            "distill",
            "--config", str(paths["config"]),
            "--data", str(paths["data"]),
            "--teacher", str(paths["teacher"]),
            "--index", str(paths["index"]),
            "--out", str(out_dir),
        ]
    )
    return code, out_dir


class TestPrecompute:
    def test_reports_size_and_writes_exact_format(self, workspace, capsys):
        capsys.readouterr()
        out = workspace["root"] / "again.cssk"
        assert (
            main(
                [
                    "precompute",
                    "--data", str(workspace["data"]),
                    "--teacher", str(workspace["teacher"]),
                    "--pool", "3",
                    "--out", str(out),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "n\t20" in stdout
        assert "pool\t3" in stdout
        assert out.stat().st_size == 4 + 4 + 8 + 8 + 20 * 3 * 4

    def test_oversized_pool_is_a_usage_error(self, workspace, capsys):
        code = main(
            [
                "precompute",
                "--data", str(workspace["data"]),
                "--teacher", str(workspace["teacher"]),
                "--pool", "20",
                "--out", str(workspace["root"] / "x.cssk"),
            ]
        )
        assert code == 2
        assert "pool too large" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, workspace):
        a = workspace["root"] / "a.cssk"
        b = workspace["root"] / "b.cssk"
        for out in (a, b):
            main(
                [
                    "precompute",
                    "--data", str(workspace["data"]),
                    "--teacher", str(workspace["teacher"]),
                    "--pool", "2",
                    "--out", str(out),
                ]
            )
        assert a.read_bytes() == b.read_bytes()

    def test_dump_teacher_matches_checkpoint_teacher(self, workspace):
        a = workspace["root"] / "from_model.cssk"
        b = workspace["root"] / "from_dump.cssk"
        for teacher, out in ((workspace["teacher"], a), (workspace["dump"], b)):
            main(
                [
                    "precompute",
                    "--data", str(workspace["data"]),
                    "--teacher", str(teacher),
                    "--pool", "2",
                    "--out", str(out),
                ]
            )
        assert a.read_bytes() == b.read_bytes()


class TestDistill:
    def test_produces_all_three_artifacts(self, workspace, capsys):
        code, out_dir = run_distill(workspace)
        assert code == 0
        assert (out_dir / "student.cssm").exists()
        assert (out_dir / "config.ini").exists()
        assert (out_dir / "metrics.tsv").exists()
        stdout = capsys.readouterr().out
        assert "run_id\t" in stdout
        metrics = read_report(out_dir / "metrics.tsv")
        assert metrics["n"] == 20
        assert metrics["steps_per_epoch"] == 4
        assert metrics["total_steps"] == 8
        assert "step.000007.l_total" in metrics

    def test_invalid_config_names_the_invariant(self, workspace, capsys):
        workspace["config"].write_text("[distill]\nlambda = -1\n", encoding="utf-8")
        code, _ = run_distill(workspace)
        assert code == 2
        assert "lambda ≥ 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", ["lambda", "beta", "lr", "momentum", "weight_decay", "aug_sigma", "bn_eps"]
    )
    def test_non_finite_config_value_is_a_usage_error(self, workspace, capsys, key, value):
        workspace["config"].write_text(f"[distill]\n{key} = {value}\n", encoding="utf-8")
        code, out_dir = run_distill(workspace)
        assert code == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bn_one_row_last_batch_is_a_usage_error(self, workspace, capsys):
        # 20 samples in batches of 19 leave a last batch of one anchor
        workspace["config"].write_text(
            "[distill]\nloss_variant = bn\nbatch_size = 19\nk = 0\npool = 2\n", encoding="utf-8"
        )
        code, out_dir = run_distill(workspace)
        assert code == 2
        assert "last batch has 1" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("line", ["loss_variant = co%only", "epochs = %(x)s"])
    def test_percent_sign_is_a_usage_error(self, workspace, capsys, line):
        workspace["config"].write_text(f"[distill]\n{line}\n", encoding="utf-8")
        code, out_dir = run_distill(workspace)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_pool_other_than_the_index_pool_is_a_usage_error(self, workspace, capsys):
        # the workspace index has pool 2
        workspace["config"].write_text(CONFIG_TEXT.replace("pool = 2", "pool = 3"), encoding="utf-8")
        code, out_dir = run_distill(workspace)
        assert code == 2
        assert "config pool 3 ≠ index pool 2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_dump_teacher_of_wrong_size_is_a_data_error(self, workspace, capsys):
        dump = read_dataset(workspace["dump"])
        write_dataset(workspace["dump"], Dataset(dump.inputs[:-1]))
        workspace["teacher"] = workspace["dump"]
        code, _ = run_distill(workspace)
        assert code == 3
        assert "teacher dump size does not match dataset" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, workspace):
        _, first = run_distill(workspace, "run_a")
        _, second = run_distill(workspace, "run_b")
        for name in ("student.cssm", "config.ini", "metrics.tsv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestEval:
    def trained_student(self, workspace):
        _, out_dir = run_distill(workspace, "trained")
        return out_dir / "student.cssm"

    def test_knn_suite_on_separable_fixture(self, workspace, capsys):
        student = self.trained_student(workspace)
        report = workspace["root"] / "knn.tsv"
        code = main(
            [
                "eval",
                "--student", str(student),
                "--data", str(workspace["data"]),
                "--suite", "knn",
                "--k-eval", "3",
                "--out", str(report),
            ]
        )
        assert code == 0
        parsed = read_report(report)
        assert parsed["suite"] == "knn"
        assert parsed["accuracy"] == 1.0
        assert "accuracy" in capsys.readouterr().out

    def test_probe_and_retrieval_suites_run(self, workspace):
        student = self.trained_student(workspace)
        for suite in ("probe", "retrieval"):
            report = workspace["root"] / f"{suite}.tsv"
            code = main(
                [
                    "eval",
                    "--student", str(student),
                    "--data", str(workspace["data"]),
                    "--suite", suite,
                    "--out", str(report),
                ]
            )
            assert code == 0
            assert read_report(report)["suite"] == suite

    @pytest.mark.parametrize(
        "flag,value",
        [("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--lr", "-1"), ("--epochs", "-1")],
    )
    def test_bad_probe_arguments_are_data_errors(self, workspace, capsys, flag, value):
        student = self.trained_student(workspace)
        report = workspace["root"] / "probe.tsv"
        code = main(
            [
                "eval",
                "--student", str(student),
                "--data", str(workspace["data"]),
                "--suite", "probe",
                "--out", str(report),
                flag, value,
            ]
        )
        assert code == 3
        assert "probe" in capsys.readouterr().err
        assert not report.exists()

    def test_diverging_probe_is_a_numerical_error(self, workspace, capsys):
        # the fit's overflow warnings stay inside the command: one line on stderr
        report = workspace["root"] / "probe.tsv"
        code = main(
            [
                "eval",
                "--student", str(workspace["teacher"]),
                "--data", str(workspace["data"]),
                "--suite", "probe",
                "--lr", "1e308",
                "--out", str(report),
            ]
        )
        assert code == 4
        assert capsys.readouterr().err == "numerical error: linear probe diverged to non-finite weights\n"
        assert not report.exists()

    def test_align_of_teacher_with_itself_is_perfect(self, workspace):
        report = workspace["root"] / "align.tsv"
        code = main(
            [
                "eval",
                "--student", str(workspace["teacher"]),
                "--data", str(workspace["data"]),
                "--suite", "align",
                "--teacher", str(workspace["teacher"]),
                "--out", str(report),
            ]
        )
        assert code == 0
        parsed = read_report(report)
        assert parsed["mean_row_cosine"] == pytest.approx(1.0, abs=1e-12)
        assert parsed["min_dim_cosine"] == pytest.approx(1.0, abs=1e-12)

    def test_align_requires_teacher(self, workspace, capsys):
        code = main(
            [
                "eval",
                "--student", str(workspace["teacher"]),
                "--data", str(workspace["data"]),
                "--suite", "align",
                "--out", str(workspace["root"] / "r.tsv"),
            ]
        )
        assert code == 2
        assert "--teacher" in capsys.readouterr().err

    def test_unknown_suite_is_a_usage_error(self, workspace):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "eval",
                    "--student", str(workspace["teacher"]),
                    "--data", str(workspace["data"]),
                    "--suite", "mystery",
                ]
            )
        assert excinfo.value.code == 2

    def test_labelless_dataset_is_a_usage_error(self, workspace, capsys):
        bare = workspace["root"] / "bare.cssd"
        write_dataset(bare, read_dataset(workspace["data"]).without_labels())
        code = main(
            [
                "eval",
                "--student", str(workspace["teacher"]),
                "--data", str(bare),
                "--suite", "knn",
                "--out", str(workspace["root"] / "r.tsv"),
            ]
        )
        assert code == 2
        assert "requires labels" in capsys.readouterr().err


class TestAblate:
    def run_grid(self, workspace, grid, out_name, *extra):
        report = workspace["root"] / out_name
        code = main(
            [
                "ablate",
                "--config", str(workspace["config"]),
                "--data", str(workspace["data"]),
                "--teacher", str(workspace["teacher"]),
                "--index", str(workspace["index"]),
                "--grid", grid,
                "--out", str(report),
                *extra,
            ]
        )
        return code, report

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--k-eval", "0", "k_eval ≥ 1"), ("--split-seed", "-1", "expected non-negative integer")],
    )
    def test_bad_eval_arguments_fail_before_training(
        self, workspace, capsys, monkeypatch, flag, value, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("ablate ran before its eval arguments were checked")

        monkeypatch.setattr(coss.cli, "ablate", no_training)
        code, report = self.run_grid(workspace, "components", "bad.tsv", flag, value)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not report.exists()

    def test_component_grid_prints_three_rows(self, workspace, capsys):
        code, report = self.run_grid(workspace, "components", "comp.tsv")
        assert code == 0
        table = capsys.readouterr().out.strip().splitlines()
        assert len(table) == 1 + 3
        assert table[0].split()[0] == "variant"
        parsed = read_report(report)
        assert parsed["rows"] == 3
        assert "row.coss.accuracy" in parsed

    def test_lambda_grid_prints_four_rows(self, workspace, capsys):
        code, report = self.run_grid(workspace, "lambda", "lam.tsv")
        assert code == 0
        table = capsys.readouterr().out.strip().splitlines()
        assert len(table) == 1 + 4
        parsed = read_report(report)
        assert parsed["rows"] == 4
        assert "row.0.25.accuracy" in parsed

    def test_report_round_trips_table_values(self, workspace, capsys):
        code, report = self.run_grid(workspace, "components", "rt.tsv")
        assert code == 0
        capsys.readouterr()
        text = report.read_text(encoding="utf-8")
        assert parse_report(text) == read_report(report)

    # SHA-256 of the report file and of the printed table, recorded before the
    # component and lambda drivers were merged into one ablation loop.
    PINNED_REPORTS = {
        "components": ("5c570d7c2a6ec7f34b48aa493e264b1bdbab467c07911cd53108eb756d24d5e2",
                       "a99fc5f63c7e26ae04b79e0375e2202680dd1b7b9188d071b21a1e06b0153fdb"),
        "lambda": ("910675bee50f1e7721959a9a49bcdadbaf9d26f3a3c6fc7e2970d0bc1a80cc14",
                   "8f2ebfbffed03abdbc51e5f516d8fcb6be0bdc4eb7596597b94af5589a2224eb"),
    }

    @pytest.mark.parametrize("grid", PINNED_REPORTS)
    def test_reports_and_tables_keep_their_bytes(self, workspace, capsys, grid):
        capsys.readouterr()
        code, report = self.run_grid(workspace, grid, f"{grid}.tsv")
        assert code == 0
        table = capsys.readouterr().out.encode("utf-8")
        digests = tuple(hashlib.sha256(b).hexdigest() for b in (report.read_bytes(), table))
        assert digests == self.PINNED_REPORTS[grid]


class TestProbeReport:
    # SHA-256 of the report file and of the printed lines of ``coss eval --suite
    # probe`` on the bundled benchmark, the teacher standing in for the student,
    # recorded before the probe's loop was made to work in place.
    PINNED_PROBE_REPORTS = {
        (): ("3b29f7eedfb6817002f7279cef6fb4870ddb0b510e0e08fbab19de088f411a15",
             "7c907253e1e432a854784647010eadad3ea9ce4d0d97d9daed8ce78a95b5b67e"),
        ("--epochs", "20", "--lr", "0.02"): (
            "2430b05b8cfe1581d2e1ce72cf163c7d52c114b98d3dbf6d4751cb8ed53e53a9",
            "199fb674d6b3da32b9b9a8aeed182711d5cf0a81e46053866d25d4fab4d981a6"),
    }

    @pytest.mark.parametrize("extra", PINNED_PROBE_REPORTS)
    def test_probe_report_keeps_its_bytes(self, tmp_path, capsys, extra):
        data, teacher = tmp_path / "bench.cssd", tmp_path / "teacher.cssm"
        write_dataset(data, make_benchmark_dataset())
        write_model(teacher, make_benchmark_teacher())
        report = tmp_path / "probe.tsv"
        capsys.readouterr()
        code = main(
            ["eval", "--suite", "probe", "--student", str(teacher), "--data", str(data),
             "--split-seed", "415", *extra, "--out", str(report)]
        )
        assert code == 0
        printed = capsys.readouterr().out.encode("utf-8")
        digests = tuple(hashlib.sha256(b).hexdigest() for b in (report.read_bytes(), printed))
        assert digests == self.PINNED_PROBE_REPORTS[extra]


class TestExitCodes:
    def test_missing_file_is_a_data_error(self, workspace, capsys):
        code = main(
            [
                "precompute",
                "--data", str(workspace["root"] / "nope.cssd"),
                "--teacher", str(workspace["teacher"]),
                "--pool", "2",
                "--out", str(workspace["root"] / "x.cssk"),
            ]
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_corrupt_magic_is_a_data_error(self, workspace, capsys):
        bad = workspace["root"] / "bad.cssd"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(
            [
                "precompute",
                "--data", str(bad),
                "--teacher", str(workspace["teacher"]),
                "--pool", "2",
                "--out", str(workspace["root"] / "x.cssk"),
            ]
        )
        assert code == 3
        assert "bad magic" in capsys.readouterr().err

    def test_nan_payload_is_a_numerical_error(self, workspace, capsys):
        blob = bytearray(encode_dataset(read_dataset(workspace["data"]).without_labels()))
        blob[25:29] = struct.pack("<f", float("nan"))  # first f32 after the header
        nan_file = workspace["root"] / "nan.cssd"
        nan_file.write_bytes(bytes(blob))
        code = main(
            [
                "precompute",
                "--data", str(nan_file),
                "--teacher", str(workspace["teacher"]),
                "--pool", "2",
                "--out", str(workspace["root"] / "x.cssk"),
            ]
        )
        assert code == 4
        assert "numerical error" in capsys.readouterr().err

    def test_signalling_nan_payload_is_one_line_and_exit_4(self, workspace):
        blob = bytearray(workspace["data"].read_bytes())
        blob[25:29] = struct.pack("<I", 0x7F800001)  # a signalling NaN as the first f32
        snan = workspace["root"] / "snan.cssd"
        snan.write_bytes(bytes(blob))
        code, err = run_coss("eval", "--suite", "knn", "--student", workspace["teacher"],
                             "--data", snan, "--out", workspace["root"] / "r.tsv")
        assert code == 4
        assert err.splitlines() == ["numerical error: non-finite input"]

    def test_damaged_files_exit_0_3_or_4_without_a_traceback(self, workspace):
        root = workspace["root"]
        eval_args = ["eval", "--suite", "knn", "--out", root / "r.tsv"]
        commands = {
            "data": lambda path: [*eval_args, "--student", workspace["teacher"], "--data", path],
            "teacher": lambda path: [*eval_args, "--student", path, "--data", workspace["data"]],
            "index": lambda path: ["distill", "--config", workspace["config"],
                                   "--data", workspace["data"], "--teacher", workspace["teacher"],
                                   "--index", path, "--out", root / f"run-{path.stem}"],
        }
        for seed, (name, command) in enumerate(commands.items()):
            for i, damaged in enumerate(corruptions(workspace[name].read_bytes(), seed, count=3)):
                path = root / f"damaged-{name}-{i}{workspace[name].suffix}"
                path.write_bytes(damaged)
                code, err = run_coss(*command(path))
                assert code in (0, 3, 4) and "Traceback" not in err, (path.name, code, err)
                assert len(err.splitlines()) <= 1, (path.name, err)

    @pytest.mark.parametrize("out", ["afile", "afile/sub", "dangling"])
    def test_distill_out_at_or_under_a_file_fails_before_training(
        self, workspace, capsys, monkeypatch, out
    ):
        afile = workspace["root"] / "afile"
        afile.write_text("keep\n")
        (workspace["root"] / "dangling").symlink_to(workspace["root"] / "missing")
        calls = []
        monkeypatch.setattr(coss.cli, "distill", lambda *args: calls.append(args))
        code, _ = run_distill(workspace, out)
        assert code == 3
        assert "is not a directory" in capsys.readouterr().err
        assert calls == []
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("command,stage", [
        ("precompute", "build_index"), ("eval", "forward"), ("ablate", "ablate"),
    ])
    def test_unwritable_file_out_fails_before_any_work(
        self, workspace, capsys, monkeypatch, command, stage
    ):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{stage} ran before --out was checked")

        monkeypatch.setattr(coss.cli, stage, no_work)
        afile = workspace["root"] / "afile"
        afile.write_text("keep\n")
        w = {key: str(path) for key, path in workspace.items()}
        extra = {
            "precompute": ["--teacher", w["teacher"], "--pool", "2"],
            "eval": ["--student", w["teacher"], "--suite", "knn"],
            "ablate": ["--config", w["config"], "--teacher", w["teacher"], "--index", w["index"],
                       "--grid", "components"],
        }[command]
        code = main([command, "--data", w["data"], *extra, "--out", str(afile / "x.tsv")])
        assert code == 3
        assert f"--out {afile / 'x.tsv'}: {afile} is not a directory" in capsys.readouterr().err
        assert afile.read_text() == "keep\n"
        code = main([command, "--data", w["data"], *extra, "--out", w["root"]])
        assert code == 3
        assert f"--out {w['root']} is a directory" in capsys.readouterr().err

    def test_eval_report_under_a_file_is_a_data_error(self, workspace, capsys):
        afile = workspace["root"] / "afile"
        afile.write_text("keep\n")
        code = main(
            [
                "eval",
                "--student", str(workspace["teacher"]),
                "--data", str(workspace["data"]),
                "--suite", "knn",
                "--out", str(afile / "x.tsv"),
            ]
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err
        assert afile.read_text() == "keep\n"

    def test_student_float32_cannot_hold_is_a_numerical_error(self, workspace, capsys, monkeypatch):
        trained = coss.cli.distill

        def overflowing(*args):
            student, log = trained(*args)
            student.layers[0].weight[0, 0] = 1e39  # finite, but inf in float32
            return student, log

        monkeypatch.setattr(coss.cli, "distill", overflowing)
        code, out_dir = run_distill(workspace)
        assert code == 4
        assert "float32 cannot hold" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_diverging_run_with_a_projection_head_is_a_numerical_error(self, diverging_bench, capsys):
        out_dir = diverging_bench["root"] / "run"
        code = main(["distill", *diverging_bench["args"], "--out", str(out_dir)])
        assert code == 4
        assert capsys.readouterr().err == "numerical error: non-finite embeddings at step 1\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["distill"], ["ablate", "--grid", "components"]])
    def test_diverging_command_prints_one_line_and_no_warning(self, diverging_bench, command):
        out = diverging_bench["root"] / "out"
        code, err = run_coss(*command, *diverging_bench["args"], "--out", out)
        assert code == 4
        assert err.splitlines() == ["numerical error: non-finite embeddings at step 1"]
        assert not out.exists()
