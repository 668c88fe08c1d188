"""One set-up probe, or one pipeline round of an API workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --mode setup|round \
        [--trace 0|1] [--inputs DIR] --out PREFIX

Set-up is ``import coss`` (timed first, before anything else is imported)
plus taking in the workload's inputs: building the Dataset and teacher
(paper1k, scale) or decoding the input files through ``coss.io``
(wide_cli).  Generating the inputs is the benchmark's own work and is not
timed.  A round then runs precompute -> distill -> eval through the public
API and writes ``PREFIX.json`` (timings, scalars, traced spans) and
``PREFIX.npz`` (the arrays the checks need).
"""

import time

_t0 = time.perf_counter()
import coss  # noqa: E402  (timed: part of set-up)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402

# Short regions are run again within a round and the median taken.
PRECOMPUTE_REPEATS = {"paper1k": 7, "scale": 2}
EVAL_REPEATS = {"paper1k": 5, "scale": 1}


def take_inputs(workload: str, seed: int, inputs_dir: str | None):
    """(set-up seconds after import, dataset, teacher, split, training seeds)."""
    if workload == "paper1k":
        from coss.benchmark import benchmark_split, make_benchmark_dataset, make_benchmark_teacher

        start = time.perf_counter()
        dataset, teacher = make_benchmark_dataset(), make_benchmark_teacher()
        elapsed = time.perf_counter() - start
        return elapsed, dataset, teacher, benchmark_split(), W.training_seeds(seed, W.PAPER_TRAIN_SEEDS)
    if workload == "scale":
        raw = W.scale_inputs(seed)
        start = time.perf_counter()
        dataset = coss.Dataset(raw["inputs"], raw["labels"])
        teacher = coss.init_model(coss.MlpSpec(W.SCALE_TEACHER_DIMS), seed=W.SCALE_TEACHER_SEED)
        elapsed = time.perf_counter() - start
        return elapsed, dataset, teacher, (raw["train_idx"], raw["test_idx"]), [raw["train_seed"]]
    start = time.perf_counter()
    io = importlib.import_module("coss.io")
    io.read_dataset(os.path.join(inputs_dir, "data.cssd"))
    io.read_dataset(os.path.join(inputs_dir, "teacher.cssd"))
    return time.perf_counter() - start, None, None, None, None


def train_config(workload: str, seed: int):
    """The bundled benchmark's config (pool 16, k 4); scale trains shorter, without a head."""
    from coss.benchmark import benchmark_config

    return benchmark_config(seed=seed, **({} if workload == "paper1k" else W.SCALE_CONFIG))


def run_round(workload: str, seed: int, trace: bool, out: str) -> None:
    intake_s, dataset, teacher, (train_idx, test_idx), seeds = take_inputs(workload, seed, None)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    K = importlib.import_module("coss.knn")
    D = importlib.import_module("coss.distill")  # coss.distill on the package is the function
    E = importlib.import_module("coss.evaluate")
    M = importlib.import_module("coss.models")
    X, labels = dataset.inputs, dataset.labels
    pool = train_config(workload, 0).pool

    def precompute(teacher_emb):
        start = time.perf_counter()
        index = K.build_index(teacher_emb, pool=pool)
        return index, time.perf_counter() - start

    def evaluate(students):
        start = time.perf_counter()
        scores = []
        for student in students:
            emb = M.forward(student, X)[0]
            pred = E.knn_predict(emb[train_idx], labels[train_idx], emb[test_idx], W.K_EVAL)
            recall = E.recall_at_k(emb, emb, labels, labels, 1, exclude_self=True)
            E.linear_probe(emb[train_idx], labels[train_idx], emb[test_idx], labels[test_idx])
            scores.append((emb, pred, recall))
        return scores, time.perf_counter() - start

    pipeline_start = time.perf_counter()
    teacher_emb = M.forward(teacher, X)[0]
    index, precompute_s = precompute(teacher_emb)
    students, logs, distill_rates = [], [], []
    unlabeled = dataset.without_labels()
    for train_seed in seeds:
        cfg = train_config(workload, train_seed)
        marks = [time.perf_counter()]
        student, log = D.distill(cfg, unlabeled, teacher, index,
                                 eval_hook=lambda _student, _epoch: marks.append(time.perf_counter()))
        students.append(student)
        logs.append(log)
        # every epoch trains each sample once as an anchor plus k neighbours of it
        rows = dataset.n * (1 + cfg.k)
        distill_rates += [rows / s for s in np.diff(marks)]
    scores, eval_s = evaluate(students)
    pipeline_s = time.perf_counter() - pipeline_start

    precompute_samples, eval_samples = [precompute_s], [eval_s]
    for _ in range(PRECOMPUTE_REPEATS[workload] - 1):
        precompute_samples.append(precompute(teacher_emb)[1])
    for _ in range(EVAL_REPEATS[workload] - 1):
        eval_samples.append(evaluate(students)[1])

    arrays = {
        "teacher_emb": teacher_emb, "neighbors": index.neighbors, "labels": labels,
        "train_idx": train_idx, "test_idx": test_idx,
    }
    for i, ((emb, pred, _), log) in enumerate(zip(scores, logs)):
        arrays[f"emb{i}"] = emb
        arrays[f"pred{i}"] = pred
        arrays[f"loss{i}"] = np.array([[r.l_co, r.l_ss, r.l_total] for r in log.steps])
    np.savez(out + ".npz", **arrays)
    stages = len(precompute_samples) + len(seeds) + 3 * len(seeds) * len(eval_samples)
    result = {
        "setup_s": IMPORT_S + intake_s,
        "pipeline_s": pipeline_s,
        "precompute_s": precompute_samples,
        "train_rows_per_s": distill_rates,
        "eval_s": eval_samples,
        "recall": [s[2] for s in scores],
        "stages": stages,
        "trace": tracer.export() if tracer else None,
    }
    with open(out + ".json", "w") as fh:
        json.dump(result, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "round"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--inputs", help="directory of the wide_cli input files")
    parser.add_argument("--out", required=True, help="prefix of the result files")
    args = parser.parse_args()
    if args.mode == "setup":
        intake_s = take_inputs(args.workload, args.seed, args.inputs)[0]
        with open(args.out + ".json", "w") as fh:
            json.dump({"setup_s": IMPORT_S + intake_s}, fh)
    else:
        run_round(args.workload, args.seed, bool(args.trace), args.out)


if __name__ == "__main__":
    main()
