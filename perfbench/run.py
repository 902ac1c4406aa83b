"""Benchmark of stochheat: one workload per fresh subprocess.

    python3 perfbench/run.py --workload exact-space --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout (the package is imported from ``src``).
Workloads run one after another, never two at once.  With ``--trace 0``
a run starts ``SETUP_PROBES`` processes that only import and parse, then
one worker that issues the workload's operations for ``--seconds`` (and
at least ``MIN_PASSES`` passes), and prints the end-to-end metrics.
With ``--trace 1`` it runs an untraced worker and a traced worker for
half the time each (at least one pass each) and prints the per-layer
metrics.  Every output is checked; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A results file with the environment stamp, and the spans of a traced
run, go to ``perfbench/results/``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import spans        # noqa: E402  (the script's directory is on sys.path)
import workloads    # noqa: E402

SETUP_PROBES = 4
# An end-to-end run makes at least two passes, so that on exact-space
# (15-20 s a pass) its median is never a single cold pass.
MIN_PASSES = 2
DEADLINE_S = 170.0     # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Traced callables whose output size is worth reporting (dense arrays).
OUT_MB = ("noise.time_overlaps", "noise.mode_cell_integrals",
          "deterministic.step_factors", "solvers.propagator_time_profile",
          "solvers.map_regularized", "solvers.spectral_fem_gram",
          "solvers.stochastic_loads_fem")
_CLI = ("cli.run_study", "cli.run_sample_path")


def _per_layer_units():
    units = {}
    for mod, path in spans.TRACED:
        name = "%s.%s" % (mod, path)
        if name in _CLI:
            continue
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        if name in OUT_MB:
            units[name + ".out_mb"] = "MiB"
    units.update({
        "cli.self_s": "s",
        "solvers.maps_built": "count",
        "solvers.maps_used_frac": "ratio",
        "mc_samples_per_s": "1/s",
        "cn_steps_per_s": "1/s",
        "fail_frac": "ratio",
        "errors.rel_dev_max": "ratio",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    pass


def _spawn(deadline, workload, seed, seconds=0.0, min_passes=1, trace=0,
           smoke=False, reference=None, spans_path=None, setup_only=False):
    """Run worker.py in a fresh process and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--min-passes", str(min_passes), "--trace", str(trace),
           "--t0", repr(t0)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if reference:
        cmd += ["--reference", str(reference)]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError("worker exited %d: %s"
                         % (proc.returncode, err.strip()[-2000:]))
    res = json.loads(out.strip().splitlines()[-1])
    origin = Path(res["stochheat_file"]).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError("stochheat was imported from %s, not %s"
                         % (origin, SRC))
    return res


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, if any
    lies above the median: (percentile, value) or None."""
    n = len(values)
    idx = n - 11
    if idx < 0 or idx <= (n - 1) // 2:
        return None
    return 100.0 * (idx + 1) / n, sorted(values)[idx]


def _correctness(phases):
    """attempted, failed, reasons, largest relative deviation.

    A run fails if it raised, failed its output check, or printed other
    bytes than the first run of the same operation (across passes and
    across the untraced and traced workers).
    """
    attempted = failed = 0
    reasons, dev = [], 0.0
    for name in phases[0]["ops"]:
        recs = [p["ops"][name] for p in phases]
        first = next((d for r in recs for d in r["digests"] if d), None)
        for r in recs:
            dev = max(dev, r["rel_dev_max"])
            reasons += ["%s: %s" % (name, why) for why in r["reasons"]]
            for ok, digest in zip(r["ok"], r["digests"]):
                attempted += 1
                if not ok:
                    failed += 1
                elif digest != first:
                    failed += 1
                    reasons.append("%s: output bytes differ between runs"
                                   % name)
    return attempted, failed, reasons, dev


def _rate(phase, ops, count):
    """Median over passes of (units of work / seconds spent on them)."""
    work = [(op.name, count(op)) for op in ops if count(op) > 0]
    if not work:
        return 0.0
    per_pass = []
    for i in range(len(phase["passes"])):
        secs = sum(phase["ops"][name]["seconds"][i] for name, _ in work)
        per_pass.append(sum(n for _, n in work) / secs)
    return median(per_pass)


def _layer_metrics(traced, untraced, ops):
    passes = traced["trace"]
    values = {}
    for mod, path in spans.TRACED:
        name = "%s.%s" % (mod, path)
        if name in _CLI:
            continue
        recs = [p["calls"].get(name, {}) for p in passes]
        values[name + ".calls"] = median([r.get("calls", 0) for r in recs])
        values[name + ".self_s"] = median([r.get("self_s", 0.0)
                                            for r in recs])
        if name in OUT_MB:
            values[name + ".out_mb"] = median(
                [r.get("out_bytes", 0) for r in recs]) / 2.0 ** 20
    values["cli.self_s"] = median([sum(p["calls"].get(c, {}).get(
        "self_s", 0.0) for c in _CLI) for p in passes])
    values["solvers.maps_built"] = median([p["maps_built"] for p in passes])
    values["solvers.maps_used_frac"] = median([
        p["maps_used"] / p["maps_built"] if p["maps_built"] else 1.0
        for p in passes])
    values["mc_samples_per_s"] = _rate(untraced, ops, workloads.mc_samples)
    values["cn_steps_per_s"] = _rate(untraced, ops, workloads.cn_steps)
    values["trace.wall_s"] = median(traced["passes"])
    values["trace.overhead_s"] = (median(traced["passes"])
                                  - median(untraced["passes"]))
    return values


def _l3_cache():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment(worker_env):
    stamp = dict(worker_env)
    stamp.update(nproc=os.cpu_count(),
                 cpus_allowed=len(os.sched_getaffinity(0)),
                 l3_cache=_l3_cache(), git_commit=_git_commit())
    return stamp


def run_workload(workload, seed, seconds, trace, smoke=False,
                 reference=HERE / "reference.json"):
    """Run one workload; returns (result line dict, results-file dict)."""
    deadline = time.monotonic() + DEADLINE_S
    ops = workloads.ops(workload, seed, smoke)
    tag = "%s%s-seed%d-trace%d" % (workload, "-smoke" if smoke else "",
                                   seed, trace)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    common = dict(workload=workload, seed=seed, smoke=smoke,
                  reference=reference)
    if not trace:
        probes = [_spawn(deadline, setup_only=True, **common)
                  for _ in range(SETUP_PROBES)]
        phases = [_spawn(deadline, seconds=seconds, min_passes=MIN_PASSES,
                         **common)]
        setup = [p["setup_s"] for p in probes] + [phases[0]["setup_s"]]
        units = END_TO_END
        values = {"wall_s": median(phases[0]["passes"]),
                  "setup_s": median(setup),
                  "peak_rss_mb": phases[0]["peak_rss_mib"]}
    else:
        spans_path = results_dir / (tag + ".spans.jsonl")
        phases = [_spawn(deadline, seconds=seconds / 2.0, **common),
                  _spawn(deadline, seconds=seconds / 2.0, trace=1,
                         spans_path=spans_path, **common)]
        units = PER_LAYER
        values = _layer_metrics(phases[1], phases[0], ops)

    attempted, failed, reasons, dev = _correctness(phases)
    if trace:
        values["fail_frac"] = failed / attempted
        values["errors.rel_dev_max"] = dev
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}
    passes = phases[0]["passes"]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke,
              "environment": environment(phases[0]["env"]),
              "result": line, "reasons": reasons, "rel_dev_max": dev,
              "wall_s": {"median": median(passes), "passes": len(passes),
                         "tail": tail_percentile(passes)},
              "phases": phases}
    with open(results_dir / (tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def _summary(workload, record):
    line = record["result"]
    print("workload %s: %d/%d operations correct, largest relative "
          "deviation from reference %.3g"
          % (workload, line["attempted"] - line["failed"],
             line["attempted"], record["rel_dev_max"]))
    for why in record["reasons"][:10]:
        print("  FAIL %s" % why)
    wall = record["wall_s"]
    print("  wall_s over %d passes: median %.4f s; %s"
          % (wall["passes"], wall["median"],
             "p%.0f %.4f s" % tuple(wall["tail"]) if wall["tail"] else
             "no percentile above the median has ten passes beyond it"))
    if record["trace"]:
        first = record["phases"][1]["trace"][0]["by_op"]
        for op, selfs in first.items():
            top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
            print("  largest self times in %s (first traced pass): %s"
                  % (op, ", ".join("%s %.3f s" % kv for kv in top)))
    for name, m in line["metrics"].items():
        print("  %-50s %14.6g %s" % (name, m["value"], m["unit"]))


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes of every operation (for tests)")
    p.add_argument("--reference", type=Path, default=HERE / "reference.json",
                   help="reference outputs (tests pass a perturbed copy)")
    return p.parse_args(argv)


def main(argv=None):
    args = _args(argv)
    if not (SRC / "stochheat" / "cli.py").is_file():
        print("error: no stochheat source tree at %s; run from the root of "
              "a checkout" % SRC, file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    lines = {}
    try:
        for name in names:
            line, record = run_workload(name, args.seed, args.seconds,
                                        args.trace, args.smoke,
                                        args.reference)
            _summary(name, record)
            lines[name] = line
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {"correct": all(v["correct"] for v in lines.values()),
                 "attempted": sum(v["attempted"] for v in lines.values()),
                 "failed": sum(v["failed"] for v in lines.values()),
                 "metrics": {"%s.%s" % (wl, k): m for wl, v in lines.items()
                             for k, m in v["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
