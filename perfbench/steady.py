"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload cone-sweep --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``command`` and ``run_seconds`` of ``BENCHMARK.json``, and prints for each
end-to-end metric its median and the distance between its first and third
quartile as a share of the median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_list,
                   help="inclusive range such as 1-10")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds",
                                 str(spec["run_seconds"]),
                                 "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        result = json.loads(done.stdout.splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: exit {done.returncode}, {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{m['name']}: median {med:.6g} {m['unit']}, spread "
              f"{(q3 - q1) / med:.4f}, bound {m['bound']}")


if __name__ == "__main__":
    main()
