"""Benchmark of coss: precompute -> distill -> eval, end to end and by layer.

    python3 perfbench/run.py --workload paper1k|scale|wide_cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats whole rounds until S
seconds have passed; a round is a few set-up probes, one pipeline pass and
the output checks.  Every process that does the work is a fresh
interpreter, started one at a time.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics plus the tracing overhead, and also writes them to
``perfbench/out/layers-<workload>-seed<N>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One BLAS thread (nproc is 2): the figures then do not depend on what else
# runs on the second core.  Set before numpy loads, inherited by every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5  # fresh interpreters per round that only set up
INDEX_SAMPLE = 256  # rows checked against the oracle where n is large
KNN_SAMPLE = 400  # k-NN queries checked against the oracle where the test split is large

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "precompute_s": "s", "train_rows_per_s": "1/s",
    "eval_s": "s", "peak_rss_mb": "MB", "knn_acc": "ratio",
}


class Round:
    """Samples of one round; a traced round also has its per-layer figures."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.layers: dict[str, float] | None = None
        self.step_ns: list[int] = []


class StageFailed(RuntimeError):
    """A process of the pipeline exited with an error; the run has no result."""


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.dir = OUT / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.traced_pipeline: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.step_ns: list[int] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    # -- operations -------------------------------------------------------
    def check(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"check failed: {name}: {problem}", file=sys.stderr)

    def child(self, argv: list[str]) -> tuple[str, float, float]:
        """Run one process to its end: (output, wall seconds, peak RSS in MB)."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            output = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        wall = time.perf_counter() - start
        text = output.decode(errors="replace")
        if proc.returncode != 0:
            raise StageFailed(f"{' '.join(argv)} exited {proc.returncode}:\n{text[-3000:]}")
        return text, wall, usage.ru_maxrss / 1024

    def worker(self, mode: str, prefix: Path, trace: bool = False) -> tuple[dict, float]:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode, "--trace", str(int(trace)),
                "--inputs", str(self.dir / "inputs"), "--out", str(prefix)]
        _, _, rss = self.child(argv)
        with open(f"{prefix}.json") as fh:
            return json.load(fh), rss

    def setup_probes(self, rnd: Round) -> None:
        for i in range(SETUP_PROBES):
            result, _ = self.worker("setup", self.dir / f"setup{i}")
            rnd.samples["setup_s"].append(result["setup_s"])
        self.attempted += SETUP_PROBES

    # -- rounds -----------------------------------------------------------
    def api_round(self, traced: bool) -> Round:
        rnd = Round()
        self.setup_probes(rnd)
        prefix = self.dir / "round"
        result, rss = self.worker("round", prefix, traced)
        self.attempted += 1 + result["stages"]
        arrays = np.load(f"{prefix}.npz")
        labels, train_idx, test_idx = arrays["labels"], arrays["train_idx"], arrays["test_idx"]
        teacher_emb = arrays["teacher_emb"]
        n = len(labels)
        rng = np.random.default_rng([self.seed, 7])
        rows = np.arange(n) if n <= 2000 else np.sort(rng.choice(n, INDEX_SAMPLE, replace=False))
        self.check("index matches the dense-cosine oracle",
                   checks.index_mismatch(teacher_emb, arrays["neighbors"], rows))
        teacher_acc, _ = checks.knn_accuracy(teacher_emb[train_idx], labels[train_idx],
                                             teacher_emb[test_idx], labels[test_idx], W.K_EVAL)
        accs = []
        queries = (np.arange(len(test_idx)) if len(test_idx) <= KNN_SAMPLE
                   else np.sort(rng.choice(len(test_idx), KNN_SAMPLE, replace=False)))
        for i, recall in enumerate(result["recall"]):
            emb, pred, loss = arrays[f"emb{i}"], arrays[f"pred{i}"], arrays[f"loss{i}"]
            acc = float(np.mean(pred == labels[test_idx]))
            accs.append(acc)
            want, ambiguous = checks.knn_vote(emb[train_idx], labels[train_idx],
                                              emb[test_idx[queries]], W.K_EVAL)
            wrong = np.flatnonzero((want != pred[queries]) & ~ambiguous)
            self.check("k-NN votes match the brute-force oracle",
                       None if wrong.size == 0 else f"{wrong.size} sampled queries disagree")
            self.check("recall@1 matches the brute-force oracle", _recall_problem(emb, labels, recall))
            self.check("losses are finite and fall", checks.losses_mismatch(loss[:, 2], loss[:, 0], loss[:, 1]))
            self.check("student knn_acc >= 0.9 x teacher's", _ratio_problem(acc, teacher_acc))
        rnd.samples["setup_s"].append(result["setup_s"])
        rnd.samples["pipeline_s"].append(result["pipeline_s"])
        rnd.samples["precompute_s"] += result["precompute_s"]
        rnd.samples["train_rows_per_s"] += result["train_rows_per_s"]
        rnd.samples["eval_s"] += result["eval_s"]
        rnd.samples["peak_rss_mb"].append(rss)
        rnd.samples["knn_acc"].append(statistics.fmean(accs))
        if traced:
            import tracing

            rnd.layers = tracing.layer_metrics([result["trace"]]) | _NO_CLI
            rnd.step_ns = result["trace"]["step_ns"]
        return rnd

    def write_wide_inputs(self) -> dict:
        sys.path.insert(0, str(ROOT / "src"))
        from coss import io
        from coss.config import DistillConfig, render_config
        from coss.data import Dataset

        raw = W.wide_inputs(self.seed)
        d = self.dir / "inputs"
        d.mkdir(parents=True)
        io.write_dataset(d / "data.cssd", Dataset(raw["inputs"], raw["labels"]))
        io.write_dataset(d / "teacher.cssd", Dataset(raw["teacher_emb"]))
        cfg = DistillConfig(seed=raw["train_seed"], **W.WIDE_CONFIG)
        (d / "config.ini").write_text(render_config(cfg), encoding="utf-8")
        # what the CLI reads back: float32 on disk
        raw["inputs32"] = raw["inputs"].astype(np.float32).astype(np.float64)
        raw["teacher32"] = raw["teacher_emb"].astype(np.float32).astype(np.float64)
        return raw

    def cli_round(self, raw: dict, traced: bool) -> Round:
        rnd = Round()
        self.setup_probes(rnd)
        d = self.dir / "inputs"
        work = self.dir / "cli"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        data, teacher = str(d / "data.cssd"), str(d / "teacher.cssd")
        index, student = str(work / "index.cssk"), str(work / "run" / "student.cssm")
        split = ["--split-seed", str(raw["split_seed"])]
        commands = [
            ("precompute", ["precompute", "--data", data, "--teacher", teacher,
                            "--pool", str(W.WIDE_CONFIG["pool"]), "--out", index]),
            ("distill", ["distill", "--config", str(d / "config.ini"), "--data", data,
                         "--teacher", teacher, "--index", index, "--out", str(work / "run")]),
        ] + [
            ("eval", ["eval", "--student", student, "--data", data, "--suite", suite,
                      "--out", str(work / f"{suite}.tsv"), *split]
             + (["--teacher", teacher] if suite == "align" else []))
            for suite in ("knn", "retrieval", "probe", "align")
        ]
        walls: dict[str, float] = {"precompute": 0.0, "distill": 0.0, "eval": 0.0}
        outputs, exports, startup = {}, [], []
        peak = 0.0
        start = time.perf_counter()
        for i, (name, args) in enumerate(commands):
            trace_file = work / f"trace{i}.json"
            prefix = ([str(HERE / "cli_traced.py"), str(trace_file)] if traced else ["-m", "coss.cli"])
            text, wall, rss = self.child([sys.executable, *prefix, *args])
            outputs[name] = text
            walls[name] += wall
            peak = max(peak, rss)
            if traced:
                with open(trace_file) as fh:
                    shim = json.load(fh)
                exports.append(shim["trace"])
                startup.append(wall - shim["main_s"])
        pipeline_s = time.perf_counter() - start
        self.attempted += len(commands)

        train_s = float(_report_line(outputs["distill"], "elapsed_s"))
        total_steps = W.wide_total_steps()
        n = len(raw["labels"])
        rows = W.WIDE_CONFIG["epochs"] * n * (1 + W.WIDE_CONFIG["k"])
        teacher_emb, labels = raw["teacher32"], raw["labels"]
        neighbors = _read_index(index)
        rng = np.random.default_rng([self.seed, 7])
        self.check("index matches the dense-cosine oracle",
                   checks.index_mismatch(teacher_emb, neighbors,
                                         np.sort(rng.choice(n, INDEX_SAMPLE, replace=False))))
        metrics = checks.read_report(work / "run" / "metrics.tsv")
        self.check("metrics.tsv has epochs * ceil(n / b) steps",
                   None if int(metrics["total_steps"]) == total_steps
                   else f"total_steps {metrics['total_steps']}, expected {total_steps}")
        loss = np.array([[float(v) for k, v in sorted(metrics.items()) if k.endswith(term)]
                         for term in (".l_co", ".l_ss", ".l_total")]).T
        self.check("losses are finite and fall", checks.losses_mismatch(loss[:, 2], loss[:, 0], loss[:, 1]))
        emb = checks.mlp_forward(checks.read_checkpoint(student), raw["inputs32"])
        train_idx, test_idx = W.cli_split(n, raw["split_seed"])
        acc = float(checks.read_report(work / "knn.tsv")["accuracy"])
        want, ties = checks.knn_accuracy(emb[train_idx], labels[train_idx], emb[test_idx],
                                         labels[test_idx], W.K_EVAL)
        self.check("CLI accuracy equals the recomputation from student.cssm",
                   None if abs(acc - want) <= ties / len(test_idx) + 1e-12
                   else f"CLI {acc!r}, recomputed {want!r}")
        recall = float(checks.read_report(work / "retrieval.tsv")["recall"])
        self.check("recall@1 matches the brute-force oracle", _recall_problem(emb, labels, recall))
        cosine = float(checks.read_report(work / "align.tsv")["mean_dim_cosine"])
        want_cos = checks.mean_dim_cosine(emb, teacher_emb)
        self.check("CLI mean_dim_cosine equals the recomputation",
                   None if abs(cosine - want_cos) <= 1e-9 else f"CLI {cosine!r}, recomputed {want_cos!r}")
        teacher_acc, _ = checks.knn_accuracy(teacher_emb[train_idx], labels[train_idx],
                                             teacher_emb[test_idx], labels[test_idx], W.K_EVAL)
        self.check("student knn_acc >= 0.9 x teacher's", _ratio_problem(acc, teacher_acc))

        rnd.samples["pipeline_s"].append(pipeline_s)
        rnd.samples["precompute_s"].append(walls["precompute"])
        rnd.samples["train_rows_per_s"].append(rows / train_s)
        rnd.samples["eval_s"].append(walls["eval"])
        rnd.samples["peak_rss_mb"].append(peak)
        rnd.samples["knn_acc"].append(acc)
        if traced:
            import tracing

            rnd.layers = tracing.layer_metrics(exports) | {
                "cli.startup.s": statistics.fmean(startup),
                "cli.precompute.s": walls["precompute"],
                "cli.distill.s": walls["distill"],
                "cli.eval.s": walls["eval"],
            }
            rnd.step_ns = [ns for ex in exports for ns in ex["step_ns"]]
        return rnd

    def add(self, rnd: Round, traced: bool) -> None:
        if traced:
            self.traced_pipeline += rnd.samples["pipeline_s"]
            self.layers.append(rnd.layers)
            self.step_ns += rnd.step_ns
            return
        for name, values in rnd.samples.items():
            self.samples[name] += values

    # -- the run ----------------------------------------------------------
    def execute(self, seconds: float) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        try:
            if self.workload == "wide_cli":
                raw = self.write_wide_inputs()
                one_round = lambda traced: self.cli_round(raw, traced)  # noqa: E731
            else:
                one_round = self.api_round
            start = time.perf_counter()
            while True:
                self.add(one_round(False), traced=False)
                if self.trace:
                    self.add(one_round(True), traced=True)
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        return self.layer_report() if self.trace else self.end_to_end()

    def end_to_end(self) -> dict:
        report = {name: {"value": statistics.median(self.samples[name]), "unit": unit}
                  for name, unit in END_TO_END.items()}
        self.write("e2e", {"metrics": report, "samples": self.samples})
        return report

    def write(self, kind: str, body: dict) -> None:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{kind}-{self.workload}-seed{self.seed}.json", "w") as fh:
            json.dump({"workload": self.workload, "seed": self.seed, **body}, fh, indent=1)

    def layer_report(self) -> dict:
        values = {name: statistics.median(r[name] for r in self.layers) for name in self.layers[0]}
        steps = sorted(self.step_ns)
        values["distill.step.samples"] = float(len(steps))
        values["distill.step.p50_us"] = statistics.median(steps) / 1e3
        values["distill.step.p95_us"] = steps[math.ceil(0.95 * len(steps)) - 1] / 1e3
        values["trace.overhead_s"] = (statistics.median(self.traced_pipeline)
                                      - statistics.median(self.samples["pipeline_s"]))
        report = {name: {"value": value, "unit": _layer_unit(name)} for name, value in sorted(values.items())}
        self.write("layers", {"metrics": report, "rounds": self.layers})
        return report


_NO_CLI = {"cli.startup.s": 0.0, "cli.precompute.s": 0.0, "cli.distill.s": 0.0, "cli.eval.s": 0.0}


def _layer_unit(name: str) -> str:
    if name.endswith("calls_per_step"):
        return "calls/step"
    if name.endswith("us_per_step"):
        return "us/step"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("io.bytes"):
        return "bytes"
    if name.endswith(".samples"):
        return "count"
    return "s"


def _recall_problem(emb, labels, recall: float) -> str | None:
    want, ties = checks.recall_at_1(emb, labels)
    if abs(recall - want) <= ties / len(labels) + 1e-12:
        return None
    return f"program {recall!r}, oracle {want!r}"


def _ratio_problem(acc: float, teacher_acc: float) -> str | None:
    if acc >= checks.STUDENT_TEACHER_RATIO * teacher_acc:
        return None
    return f"student {acc:.4f} < 0.9 x teacher {teacher_acc:.4f}"


def _report_line(text: str, key: str) -> str:
    for line in text.splitlines():
        name, _, value = line.partition("\t")
        if name == key:
            return value
    raise StageFailed(f"no {key} line in the command's output")


def _read_index(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    n, pool = np.frombuffer(blob, "<u8", 2, 8)
    return np.frombuffer(blob, "<u4", int(n * pool), 24).astype(np.int64).reshape(int(n), int(pool))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "coss" / "__init__.py").is_file():
        print(f"error: no coss package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        metrics = run.execute(args.seconds)
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
