"""Repeat the benchmark over seeds, alternating workloads, and report the
spread of every metric against the bounds in BENCHMARK.json.

    python3 perfbench/series.py --seeds 1-10 [--workloads threshold,sweep]
                                [--trace 0|1]
                                [--out FILE] [--against FILE]

Each (seed, workload) pair is one ``run.py`` invocation.  The workload order
rotates from one seed to the next, so that drift in machine speed spreads
over every workload.  For each metric the report gives the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median, marked ``steady`` below a third of the metric's bound.
With ``--trace 1`` it marks counts that differ between runs of one seed
(``--seeds 4,4`` repeats seed 4).  ``--against`` takes an earlier ``--out``
file and gives how far each median moved in the worse direction, as a share
of the earlier median, against the bound.  The exit code is 1 if any run
failed its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def worse_share(new: float, old: float, better: str) -> float:
    if not old:
        return 0.0
    change = (new - old) / old
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,3,7")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every value and summary to this JSON file")
    ap.add_argument("--against", help="an earlier --out file to compare medians with")
    args = ap.parse_args(argv)

    workloads = args.workloads.split(",")
    specs = bench["per_layer" if args.trace else "end_to_end"]
    values = {w: {m["name"]: [] for m in specs} for w in workloads}
    by_seed = {w: {} for w in workloads}
    failures = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            if proc.returncode or not result["correct"]:
                failures += 1
                print(f"seed {seed} {w}: FAILED (exit {proc.returncode})\n{proc.stderr}",
                      flush=True)
                continue
            metrics = {k2: v["value"] for k2, v in result["metrics"].items()}
            for name in values[w]:
                values[w][name].append(metrics[name])
            by_seed[w].setdefault(seed, []).append(metrics)
            shown = ", ".join(f"{n} {metrics[n]:.4g}" for n in list(values[w])[:3])
            print(f"seed {seed} {w}: {shown}", flush=True)

    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    summary = {}
    for w in workloads:
        print(f"\n{w}")
        summary[w] = {}
        for spec in specs:
            name = spec["name"]
            if not values[w][name]:
                continue
            s = summarize(values[w][name])
            summary[w][name] = s
            line = (f"  {name:38s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                    f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} n={s['n']}")
            if "bound" in spec:
                line += f"  bound {spec['bound']}"
                line += "  steady" if s["spread"] < spec["bound"] / 3 else "  NOT STEADY"
                if earlier and name in earlier["summary"].get(w, {}):
                    old = earlier["summary"][w][name]["median"]
                    ws = worse_share(s["median"], old, spec["better"])
                    line += f"  worse by {ws:+.4f}" + ("  OUT OF BOUND" if ws > spec["bound"] else "")
            elif spec["unit"] in ("count", "ratio"):
                if any(len({m[name] for m in rs}) > 1 for rs in by_seed[w].values()):
                    line += "  DIFFERS WITHIN A SEED"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "trace": args.trace, "values": values,
             "summary": summary}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
