"""Write reference.json: the exact columns of every study operation.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it from the root of a checkout of the commit whose output is the
reference (about 40 s).  For each study operation of every workload, at
full and at smoke size, it stores the ``error_exact`` column and the
fitted slope.  These do not depend on the seed: the Monte Carlo columns,
which do, are checked against ``error_exact`` instead.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check        # noqa: E402
import workloads    # noqa: E402
from stochheat import cli   # noqa: E402


def main():
    ref = {}
    for op in workloads.all_ops(seed=0):
        if op.kind != "study":
            continue
        rows, slope = check.parse_study_csv(
            cli.run_study(cli.parse_config_text(op.config)).to_csv())
        ref[op.name] = {"error_exact": [r["error_exact"] for r in rows],
                        "slope": slope}
        print("%-30s slope=%.6f" % (op.name, slope), file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
