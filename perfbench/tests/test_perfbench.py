"""Tests of the benchmark itself (smoke sizes, about 40 s in all).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run          # noqa: E402
import spans        # noqa: E402
import workloads    # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--smoke",
                           "--seconds", "0.3", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(*args, **kw):
    proc = bench(*args, **kw)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    line = result("--workload", workload, "--trace", str(trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0.0, name


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


def test_traced_attribution_on_exact_space():
    line = result("--workload", "exact-space", "--trace", "1")["metrics"]
    levels = len(workloads.ops("exact-space", 0, smoke=True)[0]
                 .get("h_levels").split(","))
    # run_study and total_error_exact each build the regularized map
    assert line["solvers.map_regularized.calls"]["value"] == 2 * levels
    # per level: sdr builds 3 maps and total 3; 2 of each 3 are used
    assert line["solvers.maps_built"]["value"] == 6 * levels
    assert line["solvers.maps_used_frac"]["value"] == pytest.approx(2 / 3)
    assert line["noise.sample.calls"]["value"] == 0
    assert line["fail_frac"]["value"] == 0.0


def test_trace_wrappers_restore_the_originals():
    from stochheat import cli  # noqa: F401  (loads every module)
    mods = {n: m for n, m in sys.modules.items()
            if n == "stochheat" or n.startswith("stochheat.")}
    cls = mods["stochheat.solvers"].GaussianCoefficientMap
    before = {n: dict(vars(m)) for n, m in mods.items()}
    cls_before = dict(vars(cls))
    tracer = spans.Tracer()
    tracer.install()
    try:
        det, sol = mods["stochheat.deterministic"], mods["stochheat.solvers"]
        assert det.step_factors is not before["stochheat.deterministic"][
            "step_factors"]
        # imported by name into solvers: patched there too
        assert sol.step_factors is det.step_factors
        assert vars(cls)["reconstruct"] is not cls_before["reconstruct"]
    finally:
        tracer.uninstall()
    for n, m in mods.items():
        after = vars(m)
        assert all(after[k] is v for k, v in before[n].items()), n
    assert all(vars(cls)[k] is v for k, v in cls_before.items())


def test_maps_tracked_by_object_not_id():
    from stochheat import solvers
    tracer = spans.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        for _ in range(5):      # each map is freed before the next exists
            solvers.map_regularized(8, 8, 1.0, 16, 1.0)
        kept = solvers.map_regularized(8, 8, 1.0, 16, 1.0)
        kept.second_moment()
        _, _, built, used = tracer.summary(mark)
    finally:
        tracer.uninstall()
    assert (built, used) == (6, 1)


def _perturbed(tmp_path, factor):
    ref = json.loads((BENCH / "reference.json").read_text())
    ref["tdr-smoke"]["error_exact"][1] *= factor
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    return path


def test_perturbed_reference_raises_fail_frac(tmp_path):
    line = result("--workload", "exact-time", "--trace", "1",
                  "--reference", str(_perturbed(tmp_path, 1.0 + 1e-6)))
    assert not line["correct"] and line["failed"] > 0
    assert line["metrics"]["fail_frac"]["value"] > 0.0


def test_last_digit_drift_is_admitted(tmp_path):
    line = result("--workload", "exact-time", "--trace", "1",
                  "--reference", str(_perturbed(tmp_path, 1.0 + 5e-13)))
    assert line["correct"]
    assert 0.0 < line["metrics"]["errors.rel_dev_max"]["value"] < 1e-12


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "exact-time", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_percentile_needs_ten_beyond_and_above_median():
    assert run.tail_percentile(list(range(15))) is None
    q, v = run.tail_percentile(list(range(40)))
    assert v == 29 and q == pytest.approx(75.0)


def test_cn_and_mc_work_counts():
    ops = {op.name: op for op in workloads.ops("sampled", 3)}
    assert workloads.mc_samples(ops["tdr-mc"]) == 200 * 5
    assert workloads.mc_samples(ops["sdr-mc"]) == 50 * 4
    assert workloads.cn_steps(ops["sample-path"]) == 1024
    assert workloads.cn_steps(ops["deterministic-cn-space"]) == 4096 * 6
    assert "seed = 3" in ops["tdr-mc"].config
