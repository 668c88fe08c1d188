"""Training-loop behaviour: determinism, logging, teacher freezing, ablations."""

import hashlib

import numpy as np
import pytest

import importlib

import coss.losses as losses_mod
from coss.benchmark import benchmark_config, make_benchmark_dataset, make_benchmark_teacher
from coss.config import DistillConfig, config_hash
from coss.data import Dataset, augment
from coss.distill import ABLATION_GRIDS, _float32_model, ablate, distill
from coss.errors import ConfigError, NumericalError
from coss.io import encode_model, read_model, write_model
from coss.knn import build_index
from coss.losses import objective
from coss.models import Layer, MlpModel, MlpSpec, backward, forward, init_model, sgd_step

from conftest import blas_kernel, pin_note


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
        # training is float32: the student is its init rounded to float32
        assert fresh == MlpModel([Layer(l.weight.astype(np.float32), l.bias.astype(np.float32),
                                        l.activation) for l in untouched.layers])
        assert fresh != untouched
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
# 3-epoch run of the bundled benchmark, per OpenBLAS kernel: another kernel
# rounds training's matmuls differently (README "Determinism").  Recorded
# when training moved to float32, under SkylakeX and OPENBLAS_CORETYPE=Haswell;
# on a kernel with no recording the test fails with pin_note.
# A change here is a change of results: declare it, or find the bug.
PINNED_RUNS = {
    "SkylakeX": {
        "coss": ("676c79cad7f998aa11447d073d5ba34db799990f2fb616196ee7a7295b762ca5",
                 "6bc2bcdc9cc55bda668c8dd86147407422ae78753d31db5f399a5108228d4f03"),
        "co_only": ("b6abfe2fc8d9bad93230ffb6162366bf7bfe20f8ff350176f26b1399e6d47c29",
                    "6c8f0f226f194478419b7de7e3e899d425d90498bc49c350497e79085482912e"),
        "ss_only": ("d699962f25dfe653c3079c05816d07a3191b71539c21eb3579c4e69890dd2a38",
                    "23b03396777f4268bd06591efb002310b1e45726fc2a04a09040ff203b88ae43"),
        "bn": ("dd21baf73df83c3faeb5e2372fe7c093538224bc4a1236f48f2b9b85e9f20766",
               "a0b4f8750b4cf411291cfed57ea208ee9b8efce946a712dba147f90722e93be5"),
    },
    "Haswell": {
        "coss": ("ebe70b41ccd75a842012e858ba705205ee1503e8135eb2e5355820ebc51637b0",
                 "e85145baae790c885c410f850b37dfda50249b229b5373f5b075d9928c52593f"),
        "co_only": ("2f489abf476cd0d6805ea71e85cc0ad7c70e4b9cb5919463174080245f40ff5b",
                    "a1221dcf11377f06f5e8a6f73c55ee248c6ddec9661ba00217d0f510e655e9e6"),
        "ss_only": ("94d773451848b087f9f8142174e4ddac3fde35f307d3d9eafc84f516ad29ec81",
                    "571cbaeb4307866f2d20073472552c71f8345c91ea6365a1a16f50844b3c8140"),
        "bn": ("0b0bf9faa691f9a13470f6091c27d99a6e81f5c6b548c20d3af9aa5af1a1b8fc",
               "4eb41f3768f751db3ff5dd19dc8520d0e398a0cb5fbbf8835fbb85938641ccfe"),
    },
}


@pytest.fixture(scope="module")
def bundled_benchmark():
    data, teacher = make_benchmark_dataset(), make_benchmark_teacher()
    return data.without_labels(), teacher, build_index(forward(teacher, data.inputs)[0], pool=16)


@pytest.mark.parametrize("variant", PINNED_RUNS["SkylakeX"])
def test_bundled_runs_keep_their_bytes(bundled_benchmark, variant):
    data, teacher, index = bundled_benchmark
    student, log = distill(benchmark_config(epochs=3, loss_variant=variant), data, teacher, index)
    weights = hashlib.sha256(b"".join(p.tobytes() for p in student.parameters())).hexdigest()
    losses = np.array([[r.l_co, r.l_ss, r.l_total] for r in log.steps])
    digests = (weights, hashlib.sha256(losses.tobytes()).hexdigest())
    assert digests == PINNED_RUNS.get(blas_kernel(), {}).get(variant), pin_note(PINNED_RUNS)


class TestFloat32Training:
    @pytest.mark.parametrize("variant", ["coss", "co_only", "ss_only", "bn"])
    def test_a_float32_step_stays_float32(self, variant):
        ds, teacher, _, _ = make_setup(d_t=5)
        cfg = small_config(loss_variant=variant, lam=0.5, weight_decay=1e-3)
        rng = np.random.default_rng(0)
        student = _float32_model(init_model(MlpSpec((6, 7, 3), hidden_activation="tanh"), seed=1))
        chain = MlpModel(student.layers + _float32_model(init_model(MlpSpec((3, 5)), seed=2)).layers)
        bn = [np.ones(5, np.float32), np.zeros(5, np.float32)] if variant == "bn" else []
        params = chain.parameters() + bn
        velocities = [np.zeros_like(p) for p in params]

        X_aug = augment(ds.inputs[:16].astype(np.float32), 0.05, rng)
        A_t = forward(teacher, X_aug)[0]  # the float64 teacher, run in float32
        A_s, cache = forward(chain, X_aug)
        l_co, l_ss, l_total, G, bn_grads = objective(A_s, A_t, cfg, bn)
        grads = backward(chain, cache, G) + bn_grads
        sgd_step(params, grads, velocities, cfg)

        assert {a.dtype for a in (X_aug, A_t, A_s, G)} == {np.dtype(np.float32)}
        assert len(grads) == len(params)
        for array in params + grads + velocities:
            assert array.dtype == np.float32
        assert all(type(v) is float for v in (l_co, l_ss, l_total))

    def test_a_float64_teacher_on_float32_rows_is_its_float32_copy(self):
        ds, teacher, _, _ = make_setup()
        X = ds.inputs.astype(np.float32)
        assert forward(teacher, X)[0].tobytes() == forward(_float32_model(teacher), X)[0].tobytes()

    def test_the_returned_student_is_float64_and_holds_float32_values(self):
        ds, teacher, _, idx = make_setup()
        seen = []
        student, _ = distill(small_config(aug_sigma=0.05), ds, teacher, idx,
                             eval_hook=lambda s, epoch: seen.append(s))
        for model in [student, *seen]:
            for p in model.parameters():
                assert p.dtype == np.float64
                np.testing.assert_array_equal(p.astype(np.float32).astype(np.float64), p)

    def test_the_api_student_is_the_saved_student(self, tmp_path):
        ds, teacher, _, idx = make_setup()
        student, _ = distill(small_config(aug_sigma=0.05), ds, teacher, idx)
        write_model(tmp_path / "student.cssm", student)
        assert read_model(tmp_path / "student.cssm") == student

    @pytest.mark.parametrize("variant", ["coss", "co_only", "ss_only", "bn"])
    def test_reruns_give_the_same_bytes(self, variant):
        ds, teacher, _, idx = make_setup()
        cfg = small_config(loss_variant=variant, aug_sigma=0.05)
        runs = [distill(cfg, ds, teacher, idx) for _ in range(2)]
        (a, log_a), (b, log_b) = runs
        assert encode_model(a) == encode_model(b)
        assert log_a.steps == log_b.steps

    def test_lr_that_overflows_float32_alone_is_a_numerical_error(self):
        data, teacher = make_benchmark_dataset(), make_benchmark_teacher()
        index = build_index(forward(teacher, data.inputs)[0], pool=16)
        cfg = benchmark_config(lr=1e30, epochs=2)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="at step 1"):
            distill(cfg, data.without_labels(), teacher, index)

    def test_inputs_float32_cannot_hold_are_a_numerical_error(self):
        ds, teacher, T, idx = make_setup()
        huge = ds.inputs.copy()
        huge[0, 0] = 1e39
        with pytest.raises(NumericalError, match="inputs has values float32 cannot hold"):
            distill(small_config(aug_sigma=0.05), Dataset(huge), teacher, idx)
        with pytest.raises(NumericalError, match="teacher embeddings has values float32 cannot hold"):
            distill(small_config(), ds, T * 1e30 * 1e9, idx)


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
