"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints a single ``acceptance n/9 ...: PASS`` line (visible with
``pytest -s`` and in the captured output of failures) and enforces the
runtime budget it was frozen with.  Thresholds in criteria 5 and 6 were
fixed after oracle runs and act as regression bounds from then on.
"""

import time
from unittest import mock

import numpy as np
import pytest

import coss.linalg
from coss.benchmark import (
    benchmark_config,
    make_benchmark_dataset,
    make_benchmark_teacher,
    model_accuracy,
)
from coss.cli import main
from coss.config import DistillConfig
from coss.data import Dataset
from coss.distill import ablate, distill
from coss.evaluate import alignment_diagnostics
from coss.io import (
    encode_dataset,
    encode_index,
    encode_model,
    decode_dataset,
    decode_index,
    decode_model,
    encode_model as _encode_model,
    write_dataset,
    write_model,
)
from coss.knn import build_index
from coss.losses import grad_ss, loss_bn, loss_co, loss_ss, objective
from coss.models import MlpSpec, backward, forward, init_model

from conftest import (
    assert_grad_close,
    brute_topk_neighbors,
    finite_diff,
    random_dataset,
    random_index,
    random_model,
)


def _verdict(num: int, name: str, elapsed: float) -> None:
    print(f"acceptance {num}/9 {name}: PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def bench():
    dataset = make_benchmark_dataset()
    teacher = make_benchmark_teacher()
    teacher_emb, _ = forward(teacher, dataset.inputs)
    index = build_index(teacher_emb, pool=16)
    return dataset, teacher, teacher_emb, index


def test_1_gradient_oracle_over_random_students():
    """50 random instances: d(L)/d(param) vs central differences, rel < 1e-5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        depth = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, 17)) for _ in range(depth + 1))
        student = init_model(
            MlpSpec(dims, hidden_activation="tanh"), seed=int(rng.integers(2**31))
        )
        batch = int(rng.integers(3, 9))
        X = rng.normal(size=(batch, dims[0]))
        T = rng.normal(size=(batch, dims[-1]))
        cfg = DistillConfig(lam=float(rng.uniform(0.0, 2.0)))

        S, cache = forward(student, X)
        analytic = backward(student, cache, objective(S, T, cfg)[3])

        def total(params=student.parameters()):
            out, _ = forward(student, X)
            return objective(out, T, cfg)[2]

        h = 1e-6
        for p, g in zip(student.parameters(), analytic):
            numeric = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                fp = total()
                p[idx] = orig - h
                fm = total()
                p[idx] = orig
                numeric[idx] = (fp - fm) / (2.0 * h)
            assert_grad_close(g, numeric, rtol=1e-5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gradient oracle took {elapsed:.1f}s, budget 30s"
    _verdict(1, "loss gradients match finite differences", elapsed)


def test_2_loss_invariance_suite():
    """Scale/permutation/duality/self-similarity identities on 100 matrices."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    tol = 1e-10
    for _ in range(100):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        A = rng.normal(size=(rows, cols))
        B = rng.normal(size=(rows, cols))

        row_scale = rng.uniform(0.1, 10.0, size=(rows, 1))
        assert abs(loss_co(A * row_scale, B) - loss_co(A, B)) <= tol
        assert abs(loss_co(A, B * row_scale) - loss_co(A, B)) <= tol

        col_scale = rng.uniform(0.1, 10.0, size=(1, cols))
        assert abs(loss_ss(A * col_scale, B) - loss_ss(A, B)) <= tol
        assert abs(loss_ss(A, B * col_scale) - loss_ss(A, B)) <= tol

        assert abs(loss_ss(A, B) - loss_co(A.T, B.T)) <= tol

        rp = rng.permutation(rows)
        cp = rng.permutation(cols)
        assert abs(loss_co(A[rp], B[rp]) - loss_co(A, B)) <= tol
        assert abs(loss_co(A[:, cp], B[:, cp]) - loss_co(A, B)) <= tol
        assert abs(loss_ss(A[rp], B[rp]) - loss_ss(A, B)) <= tol
        assert abs(loss_ss(A[:, cp], B[:, cp]) - loss_ss(A, B)) <= tol

        assert abs(loss_co(A, A) - (-1.0)) <= tol
        assert abs(loss_ss(A, A) - (-1.0)) <= tol
    _verdict(2, "loss invariance identities", time.perf_counter() - t0)


def test_3_column_space_alignment_by_gradient_descent():
    """Free-embedding descent on the space term alone aligns every dimension."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    S = rng.normal(size=(64, 8))
    T = rng.normal(size=(64, 8))
    hit = None
    for step in range(2000):
        S = S - 8.0 * grad_ss(S, T)
        if alignment_diagnostics(S, T).per_dim_cosine.min() >= 0.999:
            hit = step + 1
            break
    elapsed = time.perf_counter() - t0
    assert hit is not None, "min per-dimension cosine below 0.999 after 2000 steps"
    assert elapsed < 10.0, f"alignment run took {elapsed:.1f}s, budget 10s"
    _verdict(3, f"column alignment >= 0.999 in {hit} steps", elapsed)


def test_4_neighbour_index_matches_brute_force():
    """100 random datasets (N <= 64), tie cases included, exact equality."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    for trial in range(100):
        n = int(rng.integers(3, 65))
        dim = int(rng.integers(1, 9))
        emb = rng.normal(size=(n, dim))
        if trial % 3 == 0:  # inject exact duplicates: cosine ties
            dupes = rng.integers(0, n, size=max(1, n // 4))
            emb[dupes] = emb[rng.integers(0, n)]
        if trial % 4 == 0:
            # power-of-two scaling is exact in IEEE arithmetic, so the
            # scaled copy ties its source bit-for-bit under cosine
            j = int(rng.integers(0, n))
            emb[j] = 2.0 * emb[(j + 1) % n]
        pool = int(rng.integers(1, n))
        block = int(rng.choice([5, 256]))
        with mock.patch.object(coss.linalg, "BLOCK_ROWS", block):
            index = build_index(emb, pool)
        assert np.array_equal(index.neighbors, brute_topk_neighbors(emb, pool))
    _verdict(4, "neighbour index equals brute force", time.perf_counter() - t0)


def test_5_desk_benchmark_distillation_quality(bench):
    """Student reaches 0.9x teacher accuracy; combined loss beats the row
    term alone by at least -0.5 points averaged over 5 seeds."""
    t0 = time.perf_counter()
    dataset, teacher, _, index = bench
    teacher_acc = model_accuracy(teacher, dataset)
    print(f"benchmark teacher knn accuracy: {teacher_acc:.4f}")

    student, _ = distill(
        benchmark_config(seed=0), dataset.without_labels(), teacher, index
    )
    coss_acc = model_accuracy(student, dataset)
    assert coss_acc >= 0.9 * teacher_acc, (
        f"coss accuracy {coss_acc:.4f} < 0.9 x teacher {teacher_acc:.4f}"
    )

    def mean_accuracy(variant):
        accs = []
        for seed in range(5):
            cfg = benchmark_config(loss_variant=variant, seed=seed)
            trained, _ = distill(cfg, dataset.without_labels(), teacher, index)
            accs.append(model_accuracy(trained, dataset))
        return float(np.mean(accs))

    coss_mean = mean_accuracy("coss")
    co_only_mean = mean_accuracy("co_only")
    print(f"5-seed means: coss={coss_mean:.4f} co_only={co_only_mean:.4f}")
    assert coss_mean >= co_only_mean - 0.005, (
        f"coss mean {coss_mean:.4f} fell more than 0.5 points below "
        f"co_only mean {co_only_mean:.4f}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s, budget 300s"
    _verdict(5, "desk benchmark thresholds hold", elapsed)


def test_6_lambda_grid_with_bitwise_zero_arm(bench):
    """Grid {0, 0.25, 0.5, 1.0}; the 0 arm equals the row-term-only run."""
    t0 = time.perf_counter()
    dataset, teacher, _, index = bench
    unlabeled = dataset.without_labels()
    cfg = benchmark_config(seed=0)

    rows = ablate(
        cfg,
        unlabeled,
        teacher,
        index,
        eval_fn=lambda s: model_accuracy(s, dataset),
        grid="lambda",
    )
    assert [r["lambda"] for r in rows] == [0.0, 0.25, 0.5, 1.0]

    zero_arm, _ = distill(cfg.replace(loss_variant="coss", lam=0.0), unlabeled, teacher, index)
    co_arm, _ = distill(cfg.replace(loss_variant="co_only"), unlabeled, teacher, index)
    assert encode_model(zero_arm) == encode_model(co_arm)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"lambda grid took {elapsed:.1f}s, budget 300s"
    _verdict(6, "lambda grid shape and bitwise zero arm", elapsed)


def test_7_normalized_matching_variant_gradients():
    """Whitened-matching gradients at rel < 1e-6, plus the exact-zero case."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    h = 3e-5  # best central-difference step for this curvature at float64
    for _ in range(10):
        b = int(rng.integers(2, 7))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(b, d))
        T = rng.normal(size=(b, d))
        gamma, beta_shift = rng.uniform(0.5, 2.0, size=d), rng.normal(size=d)
        _, dX, dgamma, dbeta = loss_bn(X, T, gamma, beta_shift, 1e-5)

        assert_grad_close(
            dX,
            finite_diff(lambda M: loss_bn(M, T, gamma, beta_shift, 1e-5)[0], X, h=h),
            rtol=1e-6,
            atol=1e-9,
        )
        assert_grad_close(
            dgamma,
            finite_diff(lambda g: loss_bn(X, T, g, beta_shift, 1e-5)[0], gamma, h=h),
            rtol=1e-6,
            atol=1e-9,
        )
        assert_grad_close(
            dbeta,
            finite_diff(lambda s: loss_bn(X, T, gamma, s, 1e-5)[0], beta_shift, h=h),
            rtol=1e-6,
            atol=1e-9,
        )

    loss, _, _, _ = loss_bn([[1.0], [3.0]], [[-1.0], [3.0]], [2.0], [1.0], 1e-5)
    assert loss == 0.0
    _verdict(7, "whitened-matching gradients and zero case", time.perf_counter() - t0)


def test_8_cli_reruns_are_byte_identical(tmp_path):
    """precompute / distill / eval / ablate, each run twice: same bytes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    inputs = rng.normal(size=(24, 5)).astype(np.float32).astype(np.float64)
    dataset = Dataset(inputs, labels=np.arange(24) % 3)
    teacher = init_model(MlpSpec((5, 4), output_activation="identity"), seed=8)

    data_path = tmp_path / "data.cssd"
    teacher_path = tmp_path / "teacher.cssm"
    config_path = tmp_path / "run.ini"
    write_dataset(data_path, dataset)
    write_model(teacher_path, teacher)
    config_path.write_text(
        "[distill]\nepochs = 2\nbatch_size = 6\nk = 1\npool = 3\n"
        "lr = 0.2\naug_sigma = 0.05\nseed = 11\n"
        "[student]\nhidden_dims = 6\noutput_dim = 4\nactivation = tanh\n",
        encoding="utf-8",
    )

    def run_all(tag):
        root = tmp_path / tag
        root.mkdir()
        index = root / "nn.cssk"
        assert main([
            "precompute", "--data", str(data_path), "--teacher", str(teacher_path),
            "--pool", "3", "--out", str(index),
        ]) == 0
        run_dir = root / "run"
        assert main([
            "distill", "--config", str(config_path), "--data", str(data_path),
            "--teacher", str(teacher_path), "--index", str(index),
            "--out", str(run_dir),
        ]) == 0
        eval_report = root / "eval.tsv"
        assert main([
            "eval", "--student", str(run_dir / "student.cssm"),
            "--data", str(data_path), "--suite", "knn",
            "--out", str(eval_report),
        ]) == 0
        ablate_report = root / "ablate.tsv"
        assert main([
            "ablate", "--config", str(config_path), "--data", str(data_path),
            "--teacher", str(teacher_path), "--index", str(index),
            "--grid", "components", "--out", str(ablate_report),
        ]) == 0
        return [
            index,
            run_dir / "student.cssm",
            run_dir / "config.ini",
            run_dir / "metrics.tsv",
            eval_report,
            ablate_report,
        ]

    first = run_all("a")
    second = run_all("b")
    for fa, fb in zip(first, second):
        assert fa.read_bytes() == fb.read_bytes(), f"{fa.name} differs between reruns"
    _verdict(8, "command reruns reproduce identical bytes", time.perf_counter() - t0)


def test_9_thousand_format_round_trips():
    """encode -> decode -> encode is the identity on random valid payloads."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    coders = [
        (random_dataset, encode_dataset, decode_dataset),
        (random_index, encode_index, decode_index),
        (random_model, encode_model, decode_model),
    ]
    for i in range(1000):
        make, encode, decode = coders[i % 3]
        blob = encode(make(rng))
        assert encode(decode(blob)) == blob
    _verdict(9, "1000 payload round-trips byte-stable", time.perf_counter() - t0)
