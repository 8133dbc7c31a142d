#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py run --workload W [--seeds 1-10] [--seconds S]
                                    [--out runs.json]
    python3 perfbench/spread.py compare BASE.json NEW.json

`run` runs one workload once per seed (untraced) and prints, for each
end-to-end metric, the median, the quartiles and the spread: the distance
between the quartiles (statistics.quantiles(values, n=4)) as a share of the
median. It exits non-zero on a failed or incorrect run, or when any
metric's spread, setup_s's included, reaches a third of its bound.
--seconds defaults to BENCHMARK.json's run_seconds.

`compare` reads two saved sets of runs of one workload and prints, per
metric, both medians, the change of the second against the first, and
whether it is worse than the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summarize(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_run(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            print(proc.stdout, file=sys.stderr)
            return 1
        runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in
                                               result["metrics"].items()}})
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in
                                           runs[-1]["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
          f"{'bound/3':>8}")
    too_wide = False
    for name in runs[0]["metrics"]:
        med, q1, q3, spread = summarize([r["metrics"][name] for r in runs])
        limit = bounds.get(name, 0.0) / 3
        flag = "" if spread < limit else "  TOO WIDE"
        too_wide |= bool(flag)
        print(f"{name:14} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{limit:8.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs}, indent=1))
    return 1 if too_wide else 0


def cmd_compare(args):
    bench = load_benchmark()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    print(f"{base['workload']}: {len(base['runs'])} base runs vs "
          f"{len(new['runs'])} new runs")
    print(f"{'metric':14} {'base median':>14} {'new median':>14} {'change':>8} "
          f"{'base spread':>11} {'new spread':>10} {'bound':>6}")
    regressed = False
    for name, spec in metrics.items():
        b = [r["metrics"][name] for r in base["runs"]]
        n = [r["metrics"][name] for r in new["runs"]]
        bmed, _, _, bspread = summarize(b)
        nmed, _, _, nspread = summarize(n)
        change = (nmed - bmed) / bmed
        worse = change if spec["better"] == "lower" else -change
        verdict = "WORSE" if worse > spec["bound"] else ""
        regressed |= bool(verdict)
        print(f"{name:14} {bmed:14.6g} {nmed:14.6g} {change:+8.4f} {bspread:11.4f} "
              f"{nspread:10.4f} {spec['bound']:6.2f} {verdict}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=int, default=0)
    run.add_argument("--out")
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
