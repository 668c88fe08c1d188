"""Paired benchmark runs of a git revision against the working tree.

    python scripts/bench_pair.py --against REV [--record TAG]

Exports REV (``git archive``) and the working tree (``git stash create``, or
HEAD when nothing tracked has changed; untracked files are left out) into
two temporary directories, so no run writes into the checkout.  For each
workload in ``BENCHMARK.json`` it then alternates pairs of whole
``perfbench/run.py --trace 0`` runs of its ``run_seconds``, one per tree,
both on the same seed, with the side that runs first swapped every pair.

Per end-to-end metric it prints both medians, both interquartile ranges,
the ratio change / REV and how many pairs each side won (ties count for
neither).  A metric is "unchanged" when every pair tied exactly,
"unresolved" when REV's IQR exceeds the gap between the medians, and
"worse" when the change's median is worse than REV's, in the metric's
``better`` direction, by more than its ``bound`` (a fraction of REV's
median).  Each run's round count is read from the ``e2e`` file perfbench
writes, and the ``rounds`` column gives each side's range, REV / change; a
``peak_rss_mb`` row is marked when the two sides of some pair ran
different round counts.  ``--record TAG`` also writes every run and
that summary to ``BENCH_<TAG>.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("rev", "change")
PAIRS = 10  # per workload: a gain needs 9 wins of 10
# perfbench's peak_rss_mb includes the harness's own high-water RSS, which
# grows with the rounds a run holds, so its sides compare only at equal counts
ROUND_SENSITIVE = ("peak_rss_mb",)


class PairError(RuntimeError):
    """A revision, tag or run that leaves nothing to compare."""


def iqr(values: list[float]) -> float:
    """Upper minus lower quartile (inclusive method); 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(rev: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, IQRs, ratio, wins and verdicts of one metric over pairs ``(rev[i], change[i])``.

    ``better`` is ``"lower"`` or ``"higher"``.  A tied pair is a win for
    neither side.  The metric is unchanged when every pair ties exactly;
    otherwise it is unresolved when REV's IQR is larger than the gap between
    the two medians.  It is worse when the change's median is worse than
    REV's by more than ``bound`` times REV's median.
    """
    sign = -1.0 if better == "lower" else 1.0
    rev_median, change_median = statistics.median(rev), statistics.median(change)
    rev_iqr = iqr(rev)
    unchanged = rev == change
    return {
        "rev_median": rev_median,
        "rev_iqr": rev_iqr,
        "change_median": change_median,
        "change_iqr": iqr(change),
        "ratio": change_median / rev_median if rev_median else None,
        "change_wins": sum(sign * (c - r) > 0 for r, c in zip(rev, change)),
        "rev_wins": sum(sign * (r - c) > 0 for r, c in zip(rev, change)),
        "pairs": len(rev),
        "unchanged": unchanged,
        "unresolved": not unchanged and rev_iqr > abs(change_median - rev_median),
        "worse": sign * (rev_median - change_median) > bound * abs(rev_median),
    }


def git(*args: str) -> str:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:
        raise PairError("git is not installed") from None
    if proc.returncode != 0:
        raise PairError(f"git {' '.join(args)} failed: {proc.stderr.strip() or proc.returncode}")
    return proc.stdout.strip()


def resolve(rev: str) -> str:
    """The commit ``rev`` names, or PairError."""
    try:
        return git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    except PairError:
        raise PairError(f"{rev!r} names no commit of {ROOT}") from None


def export(commit: str, into: Path) -> None:
    """Write the tree of ``commit`` into the directory ``into``."""
    blob = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its last output line, parsed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        raise PairError(f"{workload} seed {seed} in {tree.name}: {tail[0]}")
    return json.loads(lines[-1])


def read_rounds(tree: Path, workload: str, seed: int) -> int:
    """The rounds a run in ``tree`` held: one ``pipeline_s`` sample per round in its e2e file."""
    path = tree / "perfbench" / "out" / f"e2e-{workload}-seed{seed}.json"
    try:
        return len(json.loads(path.read_text(encoding="utf-8"))["samples"]["pipeline_s"])
    except (OSError, ValueError, KeyError) as exc:
        raise PairError(f"{workload} seed {seed} in {tree.name}: no round count in {path.name}") from exc


def rounds_by_side(runs: list[dict]) -> dict:
    """Each side's round counts, ``runs`` being in seed order, and how many pairs' sides differ."""
    counts = {side: [r["rounds"] for r in runs if r["side"] == side] for side in SIDES}
    return counts | {"differing_pairs": sum(a != b for a, b in zip(*counts.values()))}


def run_pairs(trees: dict[str, Path], bench: dict) -> dict:
    """Alternate ``PAIRS`` pairs per workload; every run, its rounds, and a summary per metric."""
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                out = run_once(trees[side], bench["command"], workload, i + 1, bench["run_seconds"])
                rounds = read_rounds(trees[side], workload, i + 1)
                runs.append({"side": side, "seed": i + 1, "correct": out["correct"],
                             "failed": out["failed"], "rounds": rounds,
                             "metrics": {k: v["value"] for k, v in out["metrics"].items()}})
                print(f"{workload} seed {i + 1} {side}: correct={out['correct']} "
                      f"failed={out['failed']} rounds={rounds}", file=sys.stderr)
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name] for r in runs if r["side"] == side] for side in SIDES}
            summary[name] = summarize(values["rev"], values["change"], metric["better"],
                                      metric["bound"])
        results[workload] = {"summary": summary, "rounds": rounds_by_side(runs), "runs": runs}
    return results


def table(results: dict) -> str:
    rows = ["workload\tmetric\trev_median\trev_iqr\tchange_median\tchange_iqr\tratio\twins\t"
            "verdict\tbound\trounds"]
    for workload, body in results.items():
        rounds = body["rounds"]
        span = " / ".join(f"{min(rounds[side])}-{max(rounds[side])}" for side in SIDES)
        for name, s in body["summary"].items():
            ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
            verdict = "unchanged" if s["unchanged"] else "unresolved" if s["unresolved"] else "resolved"
            mark = ""
            if name in ROUND_SENSITIVE and rounds["differing_pairs"]:
                mark = f" (differ in {rounds['differing_pairs']}/{s['pairs']} pairs)"
            rows.append(
                f"{workload}\t{name}\t{s['rev_median']:.6g}\t{s['rev_iqr']:.3g}\t"
                f"{s['change_median']:.6g}\t{s['change_iqr']:.3g}\t{ratio}\t"
                f"{s['change_wins']}/{s['pairs']} (rev {s['rev_wins']})\t{verdict}\t"
                f"{'worse' if s['worse'] else 'within'}\t{span}{mark}"
            )
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV", help="the revision to compare with")
    parser.add_argument("--record", metavar="TAG", help="also write BENCH_<TAG>.json at the repo root")
    args = parser.parse_args(argv)
    try:
        if args.record is not None and not re.fullmatch(r"[\w.-]+", args.record):
            raise PairError(f"tag {args.record!r} is not a file-name part ([A-Za-z0-9_.-])")
        rev = resolve(args.against)
        change = git("stash", "create") or resolve("HEAD")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
            # paths of one length: perfbench's peak_rss_mb moved 3.5 MB with
            # the length of the tree's path alone
            trees = {side: Path(tmp) / f"tree{i}" for i, side in enumerate(SIDES)}
            export(rev, trees["rev"])
            export(change, trees["change"])
            results = run_pairs(trees, bench)
    except PairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(table(results))
    if args.record is not None:
        record = {"rev": rev, "change": change, "pairs": PAIRS,
                  "seconds": bench["run_seconds"], "workloads": results}
        (ROOT / f"BENCH_{args.record}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
