"""Command-line surface: precompute, distill, eval, ablate.

Exit codes: 0 success, 2 usage/config error, 3 data/format error,
4 numerical failure.  Output files are deterministic: identical inputs
and seed reproduce identical bytes, so timing is printed but never
written to disk.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import io
from .config import config_hash, load_config, render_config
from .data import Dataset
from .distill import ABLATION_GRIDS, ablate, distill, teacher_embeddings
from .errors import ConfigError, FormatError, NumericalError
from .evaluate import (alignment_diagnostics, check_k_eval, holdout_split, knn_classify,
                       linear_probe, recall_at_k)
from .knn import build_index
from .models import forward

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_teacher(path):
    """A teacher file is either a model checkpoint or an embedding dump."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == io.MAGIC_MODEL:
        return io.read_model(path)
    if magic == io.MAGIC_DATASET:
        return io.read_dataset(path).inputs
    raise FormatError("bad magic")


def _check_out(path, directory: bool = False) -> None:
    """Fail before any work if ``--out`` can never be written.

    A file's parent must be a directory, and so must the nearest existing
    ancestor of an output directory, which is made only after training.
    """
    head = os.path.abspath(path)
    if directory:
        while not os.path.lexists(head):
            head = os.path.dirname(head)
    elif os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory")
    else:
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise NotADirectoryError(f"--out {path}: {head} is not a directory")


def cmd_precompute(args) -> int:
    _check_out(args.out)
    dataset = io.read_dataset(args.data)
    emb = teacher_embeddings(_load_teacher(args.teacher), dataset.inputs)
    t0 = time.perf_counter()
    try:
        index = build_index(emb, args.pool)
    except NumericalError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    io.write_index(args.out, index)
    elapsed = time.perf_counter() - t0
    print(f"n\t{index.n}")
    print(f"pool\t{index.pool}")
    print(f"elapsed_s\t{elapsed:.3f}")
    return EXIT_OK


def _require_labels(dataset: Dataset, suite: str) -> np.ndarray:
    if dataset.labels is None:
        raise ConfigError(f"suite '{suite}' requires labels in the dataset")
    return dataset.labels


def cmd_distill(args) -> int:
    _check_out(args.out, directory=True)
    cfg = load_config(args.config)
    dataset = io.read_dataset(args.data)
    teacher = _load_teacher(args.teacher)
    index = io.read_index(args.index)

    t0 = time.perf_counter()
    student, log = distill(cfg, dataset.without_labels(), teacher, index)
    elapsed = time.perf_counter() - t0

    blob = io.encode_model(student)  # raises before --out exists if float32 cannot hold it
    os.makedirs(args.out, exist_ok=True)
    io.atomic_write(os.path.join(args.out, "student.cssm"), blob)
    io.atomic_write(
        os.path.join(args.out, "config.ini"), render_config(cfg).encode("utf-8")
    )
    run_hash = config_hash(cfg)
    records = [
        ("run_id", run_hash[:12]),
        ("config_hash", run_hash),
        ("n", dataset.n),
        ("steps_per_epoch", log.steps_per_epoch),
        ("total_steps", len(log.steps)),
    ]
    for rec in log.steps:
        prefix = f"step.{rec.step:06d}"
        records.append((f"{prefix}.l_co", rec.l_co))
        records.append((f"{prefix}.l_ss", rec.l_ss))
        records.append((f"{prefix}.l_total", rec.l_total))
    io.write_report(os.path.join(args.out, "metrics.tsv"), records)

    print(f"run_id\t{run_hash[:12]}")
    print(f"final_l_total\t{log.steps[-1].l_total!r}")
    print(f"elapsed_s\t{elapsed:.3f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_out(args.out)
    dataset = io.read_dataset(args.data)
    student = io.read_model(args.student)
    emb, _ = forward(student, dataset.inputs)
    records: list[tuple[str, object]] = [("suite", args.suite)]

    if args.suite in ("knn", "probe", "retrieval"):
        labels = _require_labels(dataset, args.suite)
    if args.suite in ("knn", "probe"):
        train_idx, test_idx = holdout_split(dataset.n, args.split_seed)
        held_out = (emb[train_idx], labels[train_idx], emb[test_idx], labels[test_idx])

    if args.suite == "knn":
        acc = knn_classify(*held_out, args.k_eval)
        records += [("k_eval", args.k_eval), ("accuracy", acc)]
    elif args.suite == "probe":
        acc = linear_probe(*held_out, epochs=args.epochs, lr=args.lr, seed=args.split_seed)
        records += [("epochs", args.epochs), ("accuracy", acc)]
    elif args.suite == "retrieval":
        rec = recall_at_k(emb, emb, labels, labels, K=args.recall_k, exclude_self=True)
        records += [("K", args.recall_k), ("recall", rec)]
    elif args.suite == "align":
        if args.teacher is None:
            raise ConfigError("suite 'align' requires --teacher")
        t_emb = teacher_embeddings(_load_teacher(args.teacher), dataset.inputs)
        if t_emb.shape[1] != emb.shape[1]:
            raise ConfigError(
                f"align needs matching widths, student {emb.shape[1]} vs teacher {t_emb.shape[1]}"
            )
        diag = alignment_diagnostics(emb, t_emb)
        records += [
            ("mean_row_cosine", diag.mean_row_cosine),
            ("min_dim_cosine", float(diag.per_dim_cosine.min())),
            ("mean_dim_cosine", float(diag.per_dim_cosine.mean())),
            ("mean_dim_scale", float(diag.per_dim_scale.mean())),
        ]
    else:  # unreachable through argparse; kept for direct calls
        raise ConfigError("suite ∈ {knn, probe, retrieval, align}")

    io.write_report(args.out, records)
    width = max(len(k) for k, _ in records)
    for key, value in records:
        print(f"{key:<{width}}  {io.format_value(value)}")
    return EXIT_OK


def _render_table(rows: list[dict], columns: list[str]) -> str:
    cells = [[io.format_value(row[c]) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def cmd_ablate(args) -> int:
    _check_out(args.out)
    cfg = load_config(args.config)
    dataset = io.read_dataset(args.data)
    labels = _require_labels(dataset, f"ablate --grid {args.grid}")
    teacher = _load_teacher(args.teacher)
    index = io.read_index(args.index)
    # a bad seed or k_eval would otherwise fail only after the first run trained
    train_idx, test_idx = holdout_split(len(labels), args.split_seed)
    check_k_eval(args.k_eval)

    def eval_fn(student):
        emb, _ = forward(student, dataset.inputs)
        return knn_classify(emb[train_idx], labels[train_idx], emb[test_idx], labels[test_idx], args.k_eval)

    rows = ablate(cfg, dataset.without_labels(), teacher, index, eval_fn, args.grid)
    key_col = ABLATION_GRIDS[args.grid][0]

    records: list[tuple[str, object]] = [("grid", args.grid), ("rows", len(rows))]
    for row in rows:
        tag = row[key_col] if isinstance(row[key_col], str) else repr(row[key_col])
        for col, value in row.items():
            records.append((f"row.{tag}.{col}", value))
    io.write_report(args.out, records)

    columns = [key_col, "accuracy", "final_l_co", "final_l_ss", "final_l_total"]
    print(_render_table(rows, columns))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coss",
        description="Unsupervised embedding distillation with feature and space cosine alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precompute", help="build the offline neighbour index")
    p.add_argument("--data", required=True, help="dataset file (CSSD)")
    p.add_argument("--teacher", required=True, help="teacher checkpoint (CSSM) or embedding dump (CSSD)")
    p.add_argument("--pool", type=int, required=True, help="neighbour candidates per sample")
    p.add_argument("--out", required=True, help="output index file (CSSK)")
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("distill", help="train a student against a frozen teacher")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--index", required=True, help="neighbour index file (CSSK)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval", help="score a trained student")
    p.add_argument("--student", required=True, help="student checkpoint (CSSM)")
    p.add_argument("--data", required=True)
    p.add_argument("--suite", required=True, choices=("knn", "probe", "retrieval", "align"))
    p.add_argument("--teacher", help="required by the align suite")
    p.add_argument("--out", default="eval_report.tsv", help="report file")
    p.add_argument("--k-eval", type=int, default=5, dest="k_eval")
    p.add_argument("--recall-k", type=int, default=1, dest="recall_k")
    p.add_argument("--epochs", type=int, default=200, help="probe training epochs")
    p.add_argument("--lr", type=float, default=0.5, help="probe learning rate")
    p.add_argument("--split-seed", type=int, default=0, dest="split_seed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run a loss-component or lambda grid")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--grid", required=True, choices=tuple(ABLATION_GRIDS))
    p.add_argument("--out", default="ablation_report.tsv", help="report file")
    p.add_argument("--k-eval", type=int, default=5, dest="k_eval")
    p.add_argument("--split-seed", type=int, default=0, dest="split_seed")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # coss's own finiteness checks decide exit 4; numpy's warnings on the way add nothing
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
