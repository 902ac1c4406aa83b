"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload exact-space --runs 10

Runs ``run.py`` once per seed (seeds ``first .. first + runs - 1``), one
run at a time, and prints for each end-to-end metric its median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json.  A benchmark is steady
when every spread (``setup_s`` aside) is below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout
        line = json.loads(out.strip().splitlines()[-1])
        if not line["correct"]:
            print("seed %d: incorrect output" % seed, file=sys.stderr)
        for name in values:
            values[name].append(line["metrics"][name]["value"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.5g" % (k, v[-1]) for k, v in values.items())), flush=True)
    steady = True
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3.0
        steady &= ok
        print("%-12s median %.6g  IQR/median %.4f  bound %.2f  %s"
              % (m["name"], med, spread, m["bound"],
                 "ok" if ok else "NOT below bound/3"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
