"""Append one entry to a workload's committed perf trajectory.

Usage, from the root of a source checkout::

    python3 benchmarks/trajectory.py --workload serve_mixed --seed 1 \\
        --pr <number> --parent-sha <sha> --change-sha <sha> \\
        --parent parent.log --change change.log

Each log holds one side of an A/B comparison: the result line of each of
its ``perfbench/run.py`` runs (the last line the run prints on stdout), in
run order, and the ``environment:`` line the runs print on stderr.  Other
lines are ignored, so a log may hold whole stderr transcripts.  The runs
pair up by position, the i-th parent run with the i-th change run, as an
alternating protocol produces them.

The entry is appended to ``BENCH_<workload>.json`` at the root of the
checkout (``--output`` names another file).  It records the change's
number, the seed, both commit SHAs (passed in, since a ``git archive`` copy
has no ``.git``), the pair count, the failed operations and the environment
of each side, and, for each end-to-end metric ``BENCHMARK.json`` declares,
its unit and direction, each side's median and quartiles and how many pairs
the change won.  A tie counts for neither side.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT_PREFIX = "environment: "


def read_side(lines) -> tuple[list[dict], dict | None]:
    """The perfbench results and the environment block found in ``lines``."""
    results: list[dict] = []
    environment = None
    for line in lines:
        line = line.strip()
        if line.startswith(ENVIRONMENT_PREFIX):
            environment = json.loads(line[len(ENVIRONMENT_PREFIX):])
        elif line.startswith("{"):
            record = json.loads(line)
            if "metrics" in record:
                results.append(record)
    return results, environment


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: within the observed range)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better; ties count for neither."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def build_entry(
    benchmark: dict,
    parent: tuple[list[dict], dict | None],
    change: tuple[list[dict], dict | None],
    *,
    pr: int,
    seed: int,
    parent_sha: str,
    change_sha: str,
) -> dict:
    """One trajectory entry from both sides' results and environments."""
    (parent_runs, parent_env), (change_runs, change_env) = parent, change
    if not parent_runs or len(parent_runs) != len(change_runs):
        raise ValueError(
            f"need the same positive number of runs per side, got "
            f"{len(parent_runs)} parent and {len(change_runs)} change"
        )
    metrics = {}
    for declared in benchmark["end_to_end"]:
        name = declared["name"]
        before = [run["metrics"][name]["value"] for run in parent_runs]
        after = [run["metrics"][name]["value"] for run in change_runs]
        metrics[name] = {
            "unit": declared["unit"],
            "better": declared["better"],
            "parent": summary(before),
            "change": summary(after),
            "change_wins": change_wins(before, after, declared["better"]),
        }
    return {
        "pr": pr,
        "seed": seed,
        "parent_sha": parent_sha,
        "change_sha": change_sha,
        "pairs": len(parent_runs),
        "failed": {
            "parent": sum(run["failed"] for run in parent_runs),
            "change": sum(run["failed"] for run in change_runs),
        },
        "metrics": metrics,
        "environment": {"parent": parent_env, "change": change_env},
    }


def append_entry(path: Path, workload: str, entry: dict) -> dict:
    """Append ``entry`` to the trajectory file at ``path`` (created if absent)."""
    if path.exists():
        trajectory = json.loads(path.read_text(encoding="utf-8"))
        if trajectory.get("workload") != workload:
            raise ValueError(f"{path} holds workload {trajectory.get('workload')!r}")
    else:
        trajectory = {"workload": workload, "entries": []}
    trajectory["entries"].append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    return trajectory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pr", type=int, required=True, help="number of the change")
    parser.add_argument("--parent-sha", required=True)
    parser.add_argument("--change-sha", required=True)
    parser.add_argument("--parent", type=Path, required=True, help="parent side's log")
    parser.add_argument("--change", type=Path, required=True, help="change side's log")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--output", type=Path, help="default: BENCH_<workload>.json at the root")
    args = parser.parse_args(argv)

    try:
        benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in benchmark["workloads"]}:
            raise ValueError(f"{args.benchmark} declares no workload {args.workload!r}")
        sides = [
            read_side(path.read_text(encoding="utf-8").splitlines())
            for path in (args.parent, args.change)
        ]
        entry = build_entry(
            benchmark, *sides, pr=args.pr, seed=args.seed,
            parent_sha=args.parent_sha, change_sha=args.change_sha,
        )
        output = args.output or ROOT / f"BENCH_{args.workload}.json"
        trajectory = append_entry(output, args.workload, entry)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"trajectory: {exc}") from exc
    print(f"{output}: {len(trajectory['entries'])} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
