"""Training-loop behaviour: determinism, logging, teacher freezing, ablations."""

import hashlib

import numpy as np
import pytest

import importlib

import coss.losses as losses_mod
from coss.benchmark import benchmark_config, make_benchmark_dataset, make_benchmark_teacher
from coss.config import DistillConfig, config_hash
from coss.data import Dataset
from coss.distill import ABLATION_GRIDS, ablate, distill
from coss.errors import ConfigError, NumericalError
from coss.io import encode_model
from coss.knn import build_index
from coss.models import MlpSpec, forward, init_model

from conftest import pin_note


def make_setup(n=24, input_dim=6, d_t=5, seed=0, pool=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, input_dim))
    teacher = init_model(MlpSpec((input_dim, d_t), output_activation="identity"), seed=77)
    T, _ = forward(teacher, X)
    return Dataset(X), teacher, T, build_index(T, pool=pool)


def small_config(**overrides):
    base = dict(
        lam=1.0, k=2, pool=4, batch_size=8, epochs=3, lr=0.2, momentum=0.9,
        aug_sigma=0.0, seed=3, student_hidden=(7,), student_dim=5,
        student_activation="tanh",
    )
    base.update(overrides)
    return DistillConfig(**base)


class TestTrainingLoop:
    def test_zero_lr_single_step_is_a_no_op(self):
        ds, teacher, _, idx = make_setup()
        cfg = small_config(epochs=1, batch_size=ds.n, k=0, lr=0.0)
        fresh, log = distill(cfg, ds, teacher, idx)
        rng = np.random.default_rng(cfg.seed)
        untouched = init_model(
            cfg.student_spec(ds.dim), seed=int(rng.integers(2**31))
        )
        assert fresh == untouched
        assert len(log.steps) == 1

    def test_linear_student_converges_on_linear_teacher(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 8))
        teacher = init_model(MlpSpec((8, 4), output_activation="identity"), seed=5)
        T, _ = forward(teacher, X)
        cfg = DistillConfig(
            lam=1.0, k=0, pool=4, batch_size=64, epochs=300, lr=0.3,
            momentum=0.9, aug_sigma=0.0, seed=1,
            student_hidden=(6,), student_dim=4, student_activation="identity",
        )
        _, log = distill(cfg, Dataset(X), teacher, build_index(T, pool=4))
        assert log.steps[-1].l_total <= -1.9

    def test_same_seed_gives_bitwise_identical_checkpoints(self):
        ds, teacher, _, idx = make_setup()
        cfg = small_config(aug_sigma=0.05)
        a, _ = distill(cfg, ds, teacher, idx)
        b, _ = distill(cfg, ds, teacher, idx)
        assert encode_model(a) == encode_model(b)

    def test_teacher_weights_bitwise_constant(self):
        ds, teacher, _, idx = make_setup()
        before = [p.copy() for p in teacher.parameters()]
        distill(small_config(), ds, teacher, idx)
        for old, now in zip(before, teacher.parameters()):
            assert np.array_equal(old, now)

    def test_logged_total_recomposes_from_parts(self):
        ds, teacher, _, idx = make_setup()
        cfg = small_config(lam=0.5)
        _, log = distill(cfg, ds, teacher, idx)
        for rec in log.steps:
            assert rec.l_total == rec.l_co + cfg.lam * rec.l_ss

    def test_plain_batches_ignore_the_index_contents(self):
        # with k=0 and no augmentation the run is a pure function of
        # (seed, config, dataset, teacher); swapping the index changes nothing
        ds, teacher, T, idx = make_setup()
        other_idx = build_index(T[::-1][np.argsort(np.arange(ds.n)[::-1])] + 1.0, pool=4)
        cfg = small_config(k=0, aug_sigma=0.0)
        a, _ = distill(cfg, ds, teacher, idx)
        b, _ = distill(cfg, ds, teacher, other_idx)
        assert encode_model(a) == encode_model(b)

    def test_co_only_never_computes_the_space_gradient(self, monkeypatch):
        calls = []
        real = losses_mod._space_grad

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(losses_mod, "_space_grad", spy)
        ds, teacher, _, idx = make_setup()
        _, log = distill(small_config(loss_variant="co_only"), ds, teacher, idx)
        assert not calls
        # l_ss is still logged for reporting
        assert all(np.isfinite(rec.l_ss) for rec in log.steps)

    def test_student_and_head_run_one_forward_and_one_backward_per_step(self, monkeypatch):
        distill_mod = importlib.import_module("coss.distill")  # coss.distill is the function
        calls = {"forward": 0, "backward": 0}
        ds, teacher, _, idx = make_setup()

        def spy(name):
            real = getattr(distill_mod, name)

            def wrapper(model, *args):
                if model is not teacher:
                    calls[name] += 1
                return real(model, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(distill_mod, name, spy(name))
        cfg = small_config(student_dim=3)  # the teacher is 5 wide: a head is needed
        student, log = distill(cfg, ds, teacher, idx)
        assert student.output_dim == 3
        assert calls == {"forward": len(log.steps), "backward": len(log.steps)}

    def test_lambda_zero_matches_co_only_bitwise(self):
        ds, teacher, _, idx = make_setup()
        a, _ = distill(small_config(loss_variant="coss", lam=0.0), ds, teacher, idx)
        b, _ = distill(small_config(loss_variant="co_only", lam=0.0), ds, teacher, idx)
        assert encode_model(a) == encode_model(b)

    def test_ss_only_total_is_scaled_space_loss(self):
        ds, teacher, _, idx = make_setup()
        cfg = small_config(loss_variant="ss_only")
        _, log = distill(cfg, ds, teacher, idx)
        for rec in log.steps:
            assert rec.l_total == rec.l_ss

    def test_bn_variant_trains(self):
        ds, teacher, _, idx = make_setup()
        cfg = small_config(loss_variant="bn", epochs=10, lr=0.05)
        _, log = distill(cfg, ds, teacher, idx)
        assert all(np.isfinite(rec.l_total) for rec in log.steps)
        assert log.steps[-1].l_total < log.steps[0].l_total

    def test_bn_one_row_last_batch_is_a_config_error(self):
        # 65 samples in batches of 64 leave a last batch of one anchor
        ds, teacher, _, idx = make_setup(n=65)
        cfg = small_config(loss_variant="bn", k=0, batch_size=64, epochs=1)
        with pytest.raises(ConfigError, match="last batch has 1"):
            distill(cfg, ds, teacher, idx)
        _, log = distill(cfg.replace(k=1), ds, teacher, idx)  # 2 rows: trains
        assert len(log.steps) == 2

    def test_oversized_batch_is_a_config_error_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("the student was drawn")

        monkeypatch.setattr(importlib.import_module("coss.distill"), "init_model", no_draw)
        ds, teacher, _, idx = make_setup(n=24)
        with pytest.raises(ConfigError, match="batch_size 25 > sample count 24"):
            distill(small_config(batch_size=25), ds, teacher, idx)

    def test_zero_sigma_draws_no_noise_and_leaves_the_data(self, monkeypatch):
        def no_noise(*args):
            raise AssertionError("augment was called")

        monkeypatch.setattr(importlib.import_module("coss.distill"), "augment", no_noise)
        ds, teacher, _, idx = make_setup()
        before = ds.inputs.copy()
        _, log = distill(small_config(aug_sigma=0.0), ds, teacher, idx)
        assert len(log.steps) == 9  # 3 epochs of 24 / 8 batches
        np.testing.assert_array_equal(ds.inputs, before)
        with pytest.raises(AssertionError, match="augment was called"):
            distill(small_config(aug_sigma=0.05), ds, teacher, idx)


# SHA-256 of the student weights and of the (l_co, l_ss, l_total) log of a
# 3-epoch run of the bundled benchmark.  The weights were recorded before the
# training step was fused into losses.objective and the neighbour draw into
# one call; the log when the logged l_ss moved onto the column pass the
# gradient uses, which moved no weight.  Recorded under OpenBLAS's SkylakeX
# kernel: another kernel rounds training's matmuls differently (README
# "Determinism").
# A change here is a change of results: declare it, or find the bug.
PINNED_RUNS = {
    "coss": ("909a3a007122fe7101f4f585c1202fd79e941fff1a223f6eb164e5ed40ed05c1",
             "d7e2d51d765ec3c216e4e60dde100875ab19ae4cac6cb238b83012e275d8a7bb"),
    "co_only": ("3da6207b4757f6db3022e65d57d74defda0fc0e91dfc0f6466349979ba7fdebf",
                "bf976c22bf2def7b819f1e38148e0b816751f67c1b12c7ee4c28b33f7ce750bf"),
    "ss_only": ("67ddcd48e193f18670bcc6540857012829222027d8cd89fb7be6ff7c51b9296e",
                "7324b7db909a82f3fe3cd3d2684a58a236e27323a1b6912b9972b769d2a81f4a"),
    "bn": ("8357998b771007cf83761b1ff06038f3ba100f50c5c28f420c79cfbeb7b01dbc",
           "7b26753afb80e1f973020941722974226731f9c3cd2777d6be51162a19751913"),
}


@pytest.fixture(scope="module")
def bundled_benchmark():
    data, teacher = make_benchmark_dataset(), make_benchmark_teacher()
    return data.without_labels(), teacher, build_index(forward(teacher, data.inputs)[0], pool=16)


@pytest.mark.parametrize("variant", PINNED_RUNS)
def test_bundled_runs_keep_their_bytes(bundled_benchmark, variant):
    data, teacher, index = bundled_benchmark
    student, log = distill(benchmark_config(epochs=3, loss_variant=variant), data, teacher, index)
    weights = hashlib.sha256(b"".join(p.tobytes() for p in student.parameters())).hexdigest()
    losses = np.array([[r.l_co, r.l_ss, r.l_total] for r in log.steps])
    digests = (weights, hashlib.sha256(losses.tobytes()).hexdigest())
    assert digests == PINNED_RUNS[variant], pin_note()


class TestProjectionHead:
    def test_head_bridges_width_gap_and_is_stripped(self):
        ds, teacher, _, idx = make_setup(d_t=5)
        cfg = small_config(student_dim=3)
        student, _ = distill(cfg, ds, teacher, idx)
        assert student.output_dim == 3
        assert len(student.layers) == 2  # hidden + output, no head

    def test_no_head_when_widths_match(self):
        ds, teacher, _, idx = make_setup(d_t=5)
        cfg = small_config(student_dim=5)
        student, _ = distill(cfg, ds, teacher, idx)
        assert student.output_dim == 5


class TestRunLog:
    def test_step_accounting(self):
        ds, teacher, _, idx = make_setup(n=20)
        cfg = small_config(batch_size=8, epochs=4)
        _, log = distill(cfg, ds, teacher, idx)
        assert log.steps_per_epoch == 3  # ceil(20 / 8)
        assert len(log.steps) == 4 * 3

    def test_eval_hook_runs_once_per_epoch_on_a_snapshot(self):
        ds, teacher, _, idx = make_setup()
        seen = []

        def hook(student, epoch):
            seen.append(epoch)
            student.layers[0].weight[:] = 1e9  # must not leak into training
            return {"epoch": epoch}

        cfg = small_config(epochs=3)
        student, log = distill(cfg, ds, teacher, idx, eval_hook=hook)
        assert seen == [0, 1, 2]
        assert log.epoch_metrics == [{"epoch": 0}, {"epoch": 1}, {"epoch": 2}]
        assert np.abs(student.layers[0].weight).max() < 1e3


class TestTeacherSources:
    def test_embedding_dump_reproduces_the_model_teacher(self):
        ds, teacher, T, idx = make_setup()
        cfg = small_config(aug_sigma=0.0)
        a, _ = distill(cfg, ds, teacher, idx)
        b, _ = distill(cfg, ds, T, idx)
        assert encode_model(a) == encode_model(b)

    def test_dump_requires_no_augmentation(self):
        ds, _, T, idx = make_setup()
        with pytest.raises(ConfigError, match="aug_sigma = 0"):
            distill(small_config(aug_sigma=0.1), ds, T, idx)

    def test_dump_row_count_must_match(self):
        ds, _, T, idx = make_setup()
        with pytest.raises(ValueError, match="teacher dump size does not match dataset"):
            distill(small_config(aug_sigma=0.0), ds, T[:-1], idx)

    def test_config_pool_must_be_the_index_pool(self):
        ds, teacher, _, idx = make_setup(pool=4)
        with pytest.raises(ConfigError, match="config pool 3 ≠ index pool 4"):
            distill(small_config(pool=3), ds, teacher, idx)

    def test_index_size_must_match(self):
        ds, teacher, T, _ = make_setup()
        small_idx = build_index(T[:-2], pool=4)
        with pytest.raises(ValueError, match="size mismatch"):
            distill(small_config(), ds, teacher, small_idx)

    def test_nan_teacher_embeddings_fail_numerically(self):
        ds, _, T, idx = make_setup()
        bad = T.copy()
        bad[3, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            distill(small_config(aug_sigma=0.0), ds, bad, idx)


class TestAblations:
    def eval_fn(self, ds, teacher):
        labels = np.arange(ds.n) % 3
        from coss.evaluate import knn_classify

        def run(student):
            emb, _ = forward(student, ds.inputs)
            return knn_classify(emb, labels, emb, labels, k_eval=1)

        return run

    def test_component_grid_shape(self):
        ds, teacher, _, idx = make_setup()
        cfg = small_config(epochs=2)
        rows = ablate(cfg, ds, teacher, idx, self.eval_fn(ds, teacher), "components")
        assert [r["variant"] for r in rows] == ["co_only", "ss_only", "coss"]
        for row in rows:  # rows differ only in the variant
            assert row["config_hash"] == config_hash(cfg.replace(loss_variant=row["variant"]))
            assert 0.0 <= row["accuracy"] <= 1.0
            assert np.isfinite(row["final_l_total"])

    def test_lambda_grid_shape(self):
        ds, teacher, _, idx = make_setup()
        cfg = small_config(epochs=2)
        rows = ablate(cfg, ds, teacher, idx, self.eval_fn(ds, teacher), "lambda")
        assert [r["lambda"] for r in rows] == [0.0, 0.25, 0.5, 1.0]
        assert len({r["config_hash"] for r in rows}) == 4

    def test_every_grid_row_is_checked_before_the_first_run_trains(self, monkeypatch):
        ds, teacher, _, idx = make_setup()
        scored = []
        grid = ("lambda", "lam", [{"lam": 0.5}, {"lam": -1.0}])
        monkeypatch.setitem(ABLATION_GRIDS, "lambda", grid)
        with pytest.raises(ConfigError, match="lambda ≥ 0"):
            ablate(small_config(), ds, teacher, idx, scored.append, "lambda")
        assert scored == []
