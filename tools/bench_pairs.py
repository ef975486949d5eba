"""Paired benchmark runs of two zetacorr checkouts, interleaved.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N \
        --out BENCH_<n>.json [--seconds S] [--seeds 0,5,9]

PARENT and CHANGE are checkout roots; each runs its own
``perfbench/run.py --trace 0`` from its root.  Pair i uses seed
seeds[i mod len(seeds)], and the side that runs first alternates from
pair to pair, so slow drifts of the machine hit both sides alike.  The
end-to-end metrics of every run, their medians and quartiles per side,
and the number of pairs each side won are written to the workload's
entry of the output JSON (other workloads' entries are kept), with the
machine's CPU count.  Each metric also gets a verdict (`verdict`): gain,
worse, unresolved or no worse.  A metric's direction and bound come from
CHANGE's BENCHMARK.json.  The entry is rewritten after every pair, so a
run that fails (which stops the script) keeps the pairs before it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `root`; its result line plus the machine line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{root}: run failed ({done.returncode}): {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "environment": json.loads(lines[-2])["environment"],
    }


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(entry: dict, sign: float) -> str:
    """A `summarize` entry's verdict; sign is 1 when lower is better.

    gain: at least 9 in 10 pairs won and a median better by more than the
    parent's inter-quartile range; worse: a median worse by more than the
    benchmark's bound; unresolved: a parent range wider than that bound;
    no worse: anything else.
    """
    par, cha, bound = entry["parent"], entry["change"], entry["bound"]
    gain = sign * (par["median"] - cha["median"])  # > 0: the change is better
    iqr = par["q3"] - par["q1"]
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and gain > iqr:
        return "gain"
    if -gain > bound:
        return "worse"
    return "unresolved" if iqr > bound else "no worse"


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Each metric's spreads, pairs won and verdict; metrics as in BENCHMARK.json's end_to_end."""
    out = {}
    for name, spec in metrics.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        par, cha = spread(parent), spread(change)
        out[name] = {
            "parent": par,
            "change": cha,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_rel_change": cha["median"] / par["median"] - 1.0,
            # a gain counts when the medians differ by more than the parent's IQR
            "median_gap_over_parent_iqr": abs(cha["median"] - par["median"])
            / max(par["q3"] - par["q1"], 1e-12),
            "bound": spec["bound"],
        }
        out[name]["verdict"] = verdict(out[name], sign)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("need at least two pairs for quartiles")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    record["nproc"] = os.cpu_count()
    pairs = []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(roots[side], args.workload, seed, seconds)
        env = pair["change"].pop("environment")
        pair["parent"].pop("environment")
        pairs.append(pair)
        wall = {side: pair[side]["metrics"].get("wall_s") for side in roots}
        print(f"pair {i} seed {seed} first {order[0]}: wall_s {wall}", flush=True)
        record.setdefault("workloads", {})[args.workload] = {
            "seconds": seconds,
            "seeds": seeds,
            "cpu_model": env["cpu_model"],
            "all_correct": all(p[s]["correct"] for p in pairs for s in roots),
            "summary": summarize(pairs, metrics),
            "pairs": pairs,
        }
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record["workloads"][args.workload]["summary"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
