"""Run the benchmark over several seeds and check that it is steady.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads tf-sparse-deep --seeds 1-5 --out spread.json

For every workload it runs `run.py` once per seed (untraced), prints each
end-to-end metric by name and unit with its median, quartiles and spread
(interquartile range over median), and flags a spread above a third of
the metric's bound in BENCHMARK.json.  Every run lasts BENCHMARK.json's
`run_seconds`, the length the bounds were set for.  For the
first seed it also runs the same seed again untraced and once traced, and
requires all three to agree on the certificate digest and on every op's
outcome.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def check_workload(name: str, seeds: list[int]) -> tuple[dict, bool]:
    ok = True
    runs = []
    for seed in seeds:
        stamp, result = run_once(name, seed, 0)
        runs.append((stamp, result))
        print(f"  seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} passes={stamp['passes']} failures={stamp['failures']}",
              flush=True)
        ok &= result["correct"]
    stamp0 = runs[0][0]
    repeat_stamp, repeat = run_once(name, seeds[0], 0)
    traced_stamp, traced = run_once(name, seeds[0], 1)
    for label, stamp, result in (("repeat", repeat_stamp, repeat), ("traced", traced_stamp, traced)):
        same = (stamp["digest"] == stamp0["digest"]
                and stamp["outcome_digest"] == stamp0["outcome_digest"])
        print(f"  seed {seeds[0]} {label}: digest and outcomes "
              f"{'match' if same else 'DIFFER'}; correct={result['correct']} {stamp['errors']}")
        ok &= same and result["correct"]
    summary = {"seeds": seeds, "tail_percentile": stamp0["tail_percentile"],
               "ops_per_pass": stamp0["ops_per_pass"], "op_limit_s": stamp0["op_limit_s"],
               "failures_first_seed": stamp0["failures"], "metrics": {},
               "layers_first_seed": {k: v["value"] for k, v in traced["metrics"].items()}}
    print(f"  {'metric':<22}{'unit':<7}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}"
          f"{'bound':>7}")
    for metric in BENCH["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for _, r in runs]
        unit = runs[0][1]["metrics"][metric["name"]]["unit"]
        med, q1, q3, sp = spread(values)
        steady = sp <= metric["bound"] / 3
        ok &= steady
        print(f"  {metric['name']:<22}{unit:<7}{med:>13.6g}{q1:>13.6g}{q3:>13.6g}"
              f"{sp:>9.4f}{metric['bound']:>7}{'' if steady else '  UNSTEADY'}")
        summary["metrics"][metric["name"]] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                              "spread": sp, "values": values}
    return summary, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    parser.add_argument("--out", type=Path, help="write the summary as JSON")
    args = parser.parse_args()
    names = ([w["name"] for w in BENCH["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    seeds = parse_seeds(args.seeds)
    all_ok = True
    summaries = {}
    for name in names:
        print(f"{name}:", flush=True)
        summaries[name], ok = check_workload(name, seeds)
        all_ok &= ok
    if args.out:
        args.out.write_text(json.dumps(summaries, indent=1, sort_keys=True) + "\n")
    print("steady" if all_ok else "NOT STEADY")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
