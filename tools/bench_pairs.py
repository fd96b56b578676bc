"""Run ``perfbench/run.py`` in alternating parent/change pairs and write one BENCH JSON file.

    python tools/bench_pairs.py --parent path/to/parent-tree --change path/to/change-tree \\
        --pairs cli_10k:1621-1630 --pairs reproduce_pool:1641-1643 \\
        --traced cli_10k:1651 --parent-commit SHA --description TEXT --out BENCH.json

Each tree is a source checkout (``src/``, ``perfbench/``) run from its own
directory.  ``--pairs WORKLOAD:FIRST-LAST`` runs one ``--trace 0`` pair per
seed: odd pairs run the parent first, even pairs the change first.
``--traced`` runs one ``--trace 1`` pair per seed.  The file keeps every
run's environment and metrics lines, and ``summary`` gives, per workload and
end-to-end metric of ``BENCHMARK.json``, the median and quartiles
(``statistics.quantiles(n=4, method='inclusive')``) of each side and the
number of pairs in which the change is better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeded(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{tree}: {workload} seed {seed} printed no result (exit {proc.returncode}):\n{proc.stderr}")
    return {"environment_line": json.loads(lines[-2]), "result_line": json.loads(lines[-1])}


def _pair(trees: dict, workload: str, seed: int, index: int, seconds: float, trace: int) -> dict:
    order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
    pair = {"workload": workload, "seed": seed, "order": order}
    for side in order:
        pair[side] = _run(trees[side], workload, seed, seconds, trace)
        print(f"{workload} seed {seed} {side}: op_s.p50 "
              f"{pair[side]['result_line']['metrics'].get('op_s.p50', {}).get('value')}", file=sys.stderr)
    return pair


def _summary(pairs: list[dict], metrics: list[dict]) -> dict:
    summary: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        summary[workload] = {}
        for metric in metrics:
            values = {
                side: [p[side]["result_line"]["metrics"][metric["name"]]["value"] for p in runs]
                for side in ("parent", "change")
            }
            sign = 1 if metric["better"] == "higher" else -1
            gaps = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            row = {"pairs": len(runs)}
            for side in ("parent", "change"):
                row[f"{side}_median"] = statistics.median(values[side])
                row[f"{side}_quartiles"] = (
                    statistics.quantiles(values[side], n=4, method="inclusive")[::2] if len(runs) > 1 else None
                )
            row["change_better_in"] = sum(g > 0 for g in gaps)
            row["ties"] = sum(g == 0 for g in gaps)
            summary[workload][metric["name"]] = row
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=_seeded, action="append", default=[], metavar="WORKLOAD:FIRST-LAST")
    parser.add_argument("--traced", type=_seeded, action="append", default=[], metavar="WORKLOAD:FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--description", required=True)
    parser.add_argument("--host", required=True, help="hardware and library versions the runs used")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    pairs = [
        _pair(trees, workload, seed, i, args.seconds, 0)
        for workload, seeds in args.pairs
        for i, seed in enumerate(seeds)
    ]
    traced = [
        _pair(trees, workload, seed, i, args.seconds, 1)
        for workload, seeds in args.traced
        for i, seed in enumerate(seeds)
    ]
    report = {
        "description": args.description,
        "parent_commit": args.parent_commit,
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {args.seconds:g} --trace TRACE",
        "host": args.host,
        "pairs": pairs,
        "traced": traced,
        "summary": _summary(pairs, metrics),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
