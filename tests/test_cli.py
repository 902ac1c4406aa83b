import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from stochheat import cli, deterministic, errors, fem, noise, solvers
from stochheat.spectral import SpectralField


def run(argv):
    return cli.main(argv)


def test_config_round_trip():
    text = "study = tdr\nseed = 5\n# comment\nK = 32\n"
    cfg = cli.parse_config_text(text)
    canon = cli.serialize_config(cfg)
    assert cli.parse_config_text(canon) == cfg
    assert cli.serialize_config(cli.parse_config_text(canon)) == canon


def test_config_rejects_garbage():
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("just words\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("key =\n")


def test_unknown_study_is_usage_error(capsys):
    assert run(["study", "--set", "study=bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_empty_level_list_is_config_error():
    assert run(["study", "--set", "study=tdr",
                "--set", "dtau_levels="]) == 1


@pytest.mark.parametrize("argv", [
    ["study", "--set", "study=model-space", "--set", "K=0"],
    ["study", "--set", "study=model-time", "--set", "K=-4"],
    ["study", "--set", "study=model-time", "--set", "j_star=0"],
    ["study", "--set", "study=tdr", "--set", "window=1"],
    ["study", "--set", "study=tdr", "--set", "dtau_levels=4"],
    ["study", "--set", "study=tdr", "--samples", "1"],
    ["study", "--set", "study=tdr", "--samples", "-2"],
    ["study", "--set", "study=tdr", "--set", "horizon=0"],
    ["study", "--set", "study=sdr", "--set", "n_star=0"],
    ["study", "--set", "study=sdr", "--set", "M=0"],
    ["study", "--set", "study=total", "--set", "h_levels=3"],
    ["study", "--set", "study=deterministic-cn", "--set", "axis=space",
     "--set", "M=0"],
    ["sample-path", "--set", "mesh=1"],
    ["sample-path", "--set", "M=0"],
    ["study", "--set", "study=tdr", "--set", "horizon=inf"],
    ["sample-path", "--set", "horizon=inf"],
    # --samples belongs to study; a sample path draws one grid
    ["sample-path", "--samples", "5", "--set", "n_star=4", "--set",
     "j_star=4", "--set", "M=2", "--set", "mesh=2"],
    # a misspelled key would leave its default in force
    ["study", "--set", "study=tdr", "--set", "dtau_level=1,2"],
    ["sample-path", "--set", "meshes=4"],
    ["sample-path", "--set", "study=tdr"],
    # studies without Monte Carlo columns would print nan ones
    ["study", "--set", "study=model-space", "--samples", "50"],
    ["study", "--set", "study=model-time", "--samples", "2"],
    ["study", "--set", "study=deterministic-cn", "--samples", "4"],
    # an --out path that cannot be opened for writing
    ["study", "--set", "study=model-space", "--set", "n_star=4", "--set",
     "K=8", "--set", "dx_levels=2,3", "--set", "window=2",
     "--out", os.path.join(os.devnull, "x.csv")],
])
def test_out_of_range_config_is_config_error(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


_EXACT_COLUMN = [
    pytest.param(n, s, 1.0, id="%d-%s" % (n, s))
    for n in (0, 3) for s in ("tdr", "sdr", "total")] + [
    # horizon 0.3: t/dt is snapped on a grid whose dt is no float
    pytest.param(0, s, h, id="%s-%g" % (s, h))
    for s in ("model-space", "model-time") for h in (1.0, 0.3)]


@pytest.mark.parametrize("samples, study, horizon", _EXACT_COLUMN)
def test_study_exact_column_matches_error_functionals(samples, study,
                                                      horizon):
    # the study shares one map pair between the exact and MC columns (a
    # modeling study its per-study factors and one profile per n*); its
    # exact column must equal the standalone functional bit for bit
    n_star, j_star, K, M, levels = 16, 8, 24, 8, (2, 3, 4)
    key = {"tdr": "dtau_levels", "model-space": "dx_levels",
           "model-time": "dt_levels"}.get(study, "h_levels")
    rep = cli.run_study({
        "study": study, "horizon": str(horizon), "seed": "1",
        "samples": str(samples), "n_star": str(n_star),
        "j_star": str(j_star), "K": str(K), "M": str(M),
        key: ",".join(map(str, levels)), "window": "3"})
    for row, e in zip(rep.rows, levels):
        if study == "model-space":
            exact = errors.modeling_error_exact(horizon, n_star, 2 ** e, K,
                                                horizon)
        elif study == "model-time":
            exact = errors.modeling_error_exact(horizon, 2 ** e, j_star, K,
                                                horizon)
        elif study == "tdr":
            exact = errors.tdr_error_exact(2 ** e, 2 ** e, n_star, j_star,
                                           1.0, K)
        else:
            eigen = fem.generalized_eigen(fem.assemble(fem.Mesh(2 ** e)))
            exact = {"sdr": errors.sdr_error_exact,
                     "total": errors.total_error_exact}[study](
                         M, M, n_star, j_star, eigen, 1.0, K)
        assert row["error_exact"] == exact
        assert (row["error_mc"] > 0.0) == (samples > 0)


def test_modeling_studies_take_per_study_factors_once(monkeypatch):
    # the K tail once per study; one regularized profile and one time Gram
    # per distinct n*: one in all at a fixed n*, one per level otherwise
    calls = {"tail": 0, "profile": 0, "gram": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(errors, "_mode_tail",
                        counted("tail", errors._mode_tail))
    monkeypatch.setattr(solvers, "OverlapProfile",
                        counted("profile", solvers.OverlapProfile))
    monkeypatch.setattr(solvers, "time_gram",
                        counted("gram", solvers.time_gram))
    base = {"horizon": "1.0", "seed": "0", "samples": "0", "K": "64",
            "window": "3"}
    for study, key, fixed, per_level in (
            ("model-space", "dx_levels", "n_star", False),
            ("model-time", "dt_levels", "j_star", True)):
        calls.update(tail=0, profile=0, gram=0)
        cli.run_study(dict(base, study=study, **{key: "2,3,4,5",
                                                 fixed: "16"}))
        n = 4 if per_level else 1
        assert calls == {"tail": 1, "profile": n, "gram": n}, study


_GOLDEN = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("name, study, extra", [
    ("tdr", "tdr", {}), ("sdr", "sdr", {}), ("total", "total", {}),
    ("model-space", "model-space", {}), ("model-time", "model-time", {}),
    ("deterministic-cn-time", "deterministic-cn", {"axis": "time"})])
def test_default_studies_match_golden_csvs(name, study, extra):
    # tests/data/<name>.csv is the default study's CSV as written by
    # commit 0c4586f; rewrite a file only with a deliberate output change
    with open(os.path.join(_GOLDEN, name + ".csv")) as fh:
        golden = fh.read()
    assert cli.run_study(dict(cli._DEFAULTS[study], **extra)).to_csv() == \
        golden


def _study_cfg(study, samples, horizon, n_star, j_star, K, M, levels):
    key = "dtau_levels" if study == "tdr" else "h_levels"
    return {"study": study, "horizon": str(horizon), "seed": "5",
            "samples": str(samples), "n_star": str(n_star),
            "j_star": str(j_star), "K": str(K), "M": str(M),
            key: ",".join(map(str, levels)), "window": "2"}


def _level_pairs(study, horizon, n_star, j_star, K, M, levels):
    """Each level's (map_a, map_b, pairing), built afresh per level; the
    sine/FEM pairing is (rows, g, w), w_p = 1 - sum_{rows_k = p} g_k^2."""
    pairs = []
    for e in levels:
        if study == "tdr":
            pairs.append((
                solvers.map_regularized(n_star, j_star, horizon, K, horizon),
                solvers.map_cn_spectral(n_star, j_star, horizon, K, 2 ** e,
                                        2 ** e), None))
            continue
        if study == "sdr":
            a = solvers.map_cn_spectral(n_star, j_star, horizon, K, M, M)
        else:
            a = solvers.map_regularized(n_star, j_star, horizon, K,
                                        M * (horizon / M))
        eigen = fem.generalized_eigen(fem.assemble(fem.Mesh(2 ** e)))
        rows, g = solvers.spectral_fem_gram(K, eigen)
        w = 1.0 - np.bincount(rows, g * g, eigen.values.size)
        pairs.append((a, solvers.map_cn_fem(n_star, j_star, horizon, eigen,
                                            M, M), (rows, g, w)))
    return pairs


_ONE_BLOCK = [("tdr", 1.0, 16, 8), ("sdr", 1.0, 16, 8), ("total", 1.0, 16, 8),
              ("total", 0.3, 24, 16), ("tdr", 0.3, 24, 16)]


@pytest.mark.parametrize("study,horizon,n_star,M,j_star,samples", [
    pytest.param(*case, 8, 6, id="-".join(map(str, case)))
    for case in _ONE_BLOCK] + [
    # 2^19 increments per block: blocks of 8 and 2 grids at 256 x 256,
    # one grid per block at 1024 x 1024
    pytest.param("tdr", 1.0, 256, 8, 256, 10, id="tdr-blocks-8-2"),
    pytest.param("sdr", 1.0, 256, 8, 256, 10, id="sdr-blocks-8-2"),
    pytest.param("tdr", 1.0, 1024, 8, 1024, 2, id="tdr-blocks-1-1"),
    pytest.param("sdr", 1.0, 1024, 16, 1024, 2, id="sdr-blocks-1-1")])
def test_study_mc_columns_match_per_level_loop(study, horizon, n_star, M,
                                               j_star, samples):
    # one shared pass over the samples must give, bit for bit, what one
    # mc_error run per level with plain reconstruct calls gives
    K = 24
    levels = (1, 2, 3) if study == "tdr" else (2, 3, 4)
    rep = cli.run_study(_study_cfg(study, samples, horizon, n_star, j_star,
                                   K, M, levels))
    pairs = _level_pairs(study, horizon, n_star, j_star, K, M, levels)
    for row, (map_a, map_b, pairing) in zip(rep.rows, pairs):
        def one(s):
            g = noise.sample(n_star, j_star, horizon, s)
            a, b = map_a.reconstruct(g), map_b.reconstruct(g)
            if pairing is None:
                d = a - b
                return float(d @ d)
            # termwise: ||a - g b[rows]||^2 plus the FEM part above mode K
            rows, gk, w = pairing
            d = a - gk * b[rows]
            return float(d @ d + w @ (b * b))
        mean, se = errors.mc_error(one, samples, 5)
        assert row["error_mc"] == math.sqrt(mean)
        assert row["stderr"] == se / (2.0 * math.sqrt(mean))


@pytest.mark.parametrize("study", ["tdr", "sdr", "total"])
def test_study_draws_each_grid_once(study, monkeypatch):
    drawn = []
    sample = noise.sample

    def counting(*args):
        drawn.append(args[-1])
        return sample(*args)
    monkeypatch.setattr(noise, "sample", counting)
    cli.run_study(_study_cfg(study, 7, 1.0, 16, 8, 24, 8, (1, 2, 3)))
    assert drawn == [errors.sample_seed(5, i) for i in range(7)]


@pytest.mark.parametrize("study", ["sdr", "total"])
def test_sampled_study_pairs_each_level_once(study, monkeypatch):
    # the exact column and the Monte Carlo distance share one pairing
    meshes = []
    gram = solvers.spectral_fem_gram

    def counted(K, eigen):
        meshes.append(eigen.system.mesh.intervals)
        return gram(K, eigen)
    monkeypatch.setattr(solvers, "spectral_fem_gram", counted)
    solvers._alias_pairing.cache_clear()
    rep = cli.run_study(_study_cfg(study, 3, 1.0, 16, 8, 24, 8, (2, 3, 4)))
    assert all(row["error_mc"] > 0.0 for row in rep.rows)
    assert meshes == [4, 8, 16]


def test_shared_projection_keeps_grid_check():
    ok = solvers.map_regularized(16, 8, 1.0, 24, 1.0)
    # same space fold (so the projection is shared), other horizon
    foreign = solvers.map_regularized(16, 8, 2.0, 24, 1.0)
    assert foreign.fold() is ok.fold()
    g = noise.sample(16, 8, 1.0, 0)
    assert (ok.reconstruct(g, ok.project(g)) == ok.reconstruct(g)).all()
    with pytest.raises(ValueError, match="does not match"):
        foreign.reconstruct(g, ok.project(g))
    with pytest.raises(ValueError, match="does not match"):
        cli._mc_rms([(ok, foreign, solvers.squared_distance(ok, foreign))],
                    2, 0)


@pytest.mark.parametrize("levels", [(3, 4, 5, 6, 7), (5, 3, 4), (1, 2, 3)])
def test_deterministic_space_study_matches_per_level_steps(levels):
    # the levels share one stacked banded solve; the CSV must be, byte for
    # byte, what one modified_cn_fem and l2t_error per level gives
    M, window = 256, 3
    cfg = {"study": "deterministic-cn", "axis": "space", "horizon": "1.0",
           "seed": "0", "samples": "0", "M": str(M),
           "h_levels": ",".join(map(str, levels)), "window": str(window)}
    v0, dtau = SpectralField(np.array([1.0])), 1.0 / M
    ref = deterministic.modified_cn_spectral(v0, M, dtau)
    rep = errors.ErrorReport("deterministic-cn")
    for lvl, e in enumerate(levels):
        system = fem.assemble(fem.Mesh(2 ** e))
        num = deterministic.modified_cn_fem(v0, system, M, dtau)
        rep.add_row(lvl, math.nan, math.nan, dtau, system.mesh.h, 1,
                    deterministic.l2t_error(num, ref, "midpoint", system))
    rep.fit("h", window)
    assert cli.run_study(cfg).to_csv() == rep.to_csv()


def test_non_finite_fem_start_exits_2(monkeypatch, capsys):
    project = fem.l2_project

    def spoiled(f, system):
        v = project(f, system)
        if system.mesh.intervals == 8:
            v[2] = np.nan
        return v
    monkeypatch.setattr(fem, "l2_project", spoiled)
    assert run(["study", "--set", "study=deterministic-cn", "--set",
                "axis=space", "--set", "M=16", "--set", "h_levels=2,3,4",
                "--set", "window=3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "not finite" in out.err


@pytest.mark.parametrize("study,key", [("tdr", "dtau_levels"),
                                       ("sdr", "h_levels"),
                                       ("deterministic-cn", "h_levels")])
def test_repeated_level_exponent_is_config_error(study, key, capsys):
    # a repeated level would fit a slope through a duplicated point
    assert run(["study", "--set", "study=" + study, "--set", "n_star=16",
                "--set", "j_star=16", "--set", "K=32", "--set", "M=16",
                "--set", "axis=space", "--set", key + "=2,3,2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "repeats an exponent" in out.err


def test_inconsistent_moments_exit_2(monkeypatch, capsys):
    # a negative squared error beyond rounding is a numerical failure
    pairing = solvers.spectral_fem_gram

    def doubled(K, eigen):
        rows, g = pairing(K, eigen)
        return rows, 2.0 * g
    monkeypatch.setattr(solvers, "spectral_fem_gram", doubled)
    assert run(["study", "--set", "study=sdr", "--set", "n_star=16",
                "--set", "j_star=16", "--set", "K=32", "--set", "M=8",
                "--set", "h_levels=3,4"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "negative beyond rounding" in out.err


def test_modeling_error_beyond_rounding_exits_2(monkeypatch, capsys):
    # projected energy above the semigroup variance is not clamped to 0
    sq_sums = noise.mode_cell_sq_sums
    monkeypatch.setattr(noise, "mode_cell_sq_sums",
                        lambda ks, j_star: 2.0 * sq_sums(ks, j_star))
    assert run(["study", "--set", "study=model-space"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "beyond rounding" in out.err


def test_allocation_failure_exits_2(capsys):
    # dtau = 2^-50 asks CN stepping for an 8 PiB array of states; numpy
    # refuses it at once
    assert run(["study", "--set", "study=deterministic-cn", "--set",
                "axis=time", "--set", "dtau_levels=2,50",
                "--set", "window=2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("numerical failure:")
    assert out.err.count("\n") == 1


def test_cli_import_leaves_scipy_out():
    # scipy is imported by the first banded solve only: neither start-up
    # nor an exact study (the mode tail's trigamma is computed in-package)
    # loads it; the CSV kernel's tables are not built at import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    studies = [
        ["study=model-space", "n_star=64", "K=64", "dx_levels=3,4,5",
         "window=3"],
        ["study=model-time", "j_star=64", "K=64", "dt_levels=3,4,5",
         "window=3"],
        ["study=tdr", "n_star=16", "j_star=16", "K=32",
         "dtau_levels=2,3,4"],
        ["study=sdr", "n_star=64", "j_star=16", "K=32", "M=64",
         "h_levels=2,3,4"],
        ["study=total", "n_star=64", "j_star=16", "K=32", "M=64",
         "h_levels=2,3,4"],
    ]
    code = ("import sys, stochheat.cli as cli\n"
            "print('scipy' in sys.modules)\n"
            "print(cli._csv_tables.cache_info().currsize)\n"
            "for s in %r:\n"
            "    argv = ['study', '--samples', '0', '--out', %r]\n"
            "    for kv in s:\n"
            "        argv += ['--set', kv]\n"
            "    assert cli.main(argv) == 0, s\n"
            "print('scipy' in sys.modules)\n" % (studies, os.devnull))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "0", "False"]


def test_unwritable_out_fails_before_the_run(monkeypatch, capsys, tmp_path):
    # the --out path is opened before any computation, and a file that
    # exists keeps its text when the run then fails
    def no_run(cfg):
        raise AssertionError("the run started")
    monkeypatch.setattr(cli, "run_study", no_run)
    monkeypatch.setattr(cli, "run_sample_path", no_run)
    bad = os.path.join(os.devnull, "x.csv")
    assert run(["study", "--set", "study=tdr", "--out", bad]) == 1
    assert run(["sample-path", "--out", bad]) == 1
    assert capsys.readouterr().err.count("error:") == 2

    def failing(cfg):
        raise ValueError("diverged")
    monkeypatch.setattr(cli, "run_study", failing)
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier results\n")
    assert run(["study", "--set", "study=tdr", "--out", str(kept)]) == 2
    assert kept.read_text() == "earlier results\n"


def test_missing_subcommand():
    assert run([]) == 1


def test_study_csv_deterministic(tmp_path):
    a = os.path.join(tmp_path, "a.csv")
    b = os.path.join(tmp_path, "b.csv")
    args = ["study", "--seed", "3", "--samples", "4",
            "--set", "study=tdr", "--set", "n_star=16",
            "--set", "j_star=16", "--set", "K=32",
            "--set", "dtau_levels=1,2,3"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_study_csv_schema(tmp_path):
    out = os.path.join(tmp_path, "o.csv")
    assert run(["study", "--out", out, "--set", "study=tdr",
                "--set", "n_star=8", "--set", "j_star=8",
                "--set", "K=16", "--set", "dtau_levels=1,2,3"]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "study,level,dt,dx,dtau,h,K,error_exact,error_mc,stderr"
    assert len(lines) == 5  # header + 3 levels + slope
    assert lines[-1].startswith("slope,")
    for line in lines[1:-1]:
        parts = line.split(",")
        assert len(parts) == 10
        assert parts[0] == "tdr"


def test_sample_path_output(tmp_path):
    out = os.path.join(tmp_path, "path.csv")
    assert run(["sample-path", "--out", out, "--seed", "4",
                "--set", "n_star=16", "--set", "j_star=16",
                "--set", "M=8", "--set", "mesh=8"]) == 0
    rows = [l.split(",") for l in open(out).read().strip().split("\n")]
    assert len(rows) == 9                 # M + 1 time levels
    assert len(rows[0]) == 7              # one column per interior node
    assert all(float(v) == 0.0 for v in rows[0])   # starts from zero
    assert any(float(v) != 0.0 for v in rows[-1])


def test_sample_path_reproducible(tmp_path):
    a = os.path.join(tmp_path, "a.csv")
    b = os.path.join(tmp_path, "b.csv")
    args = ["sample-path", "--seed", "9", "--set", "n_star=8",
            "--set", "j_star=8", "--set", "M=4", "--set", "mesh=8"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert open(a).read() == open(b).read()


def _whole_path_csv(cfg):
    """The sample path from one whole noise grid: ``cn_fem_spde`` states
    as "%.17g" rows."""
    grid = noise.sample(int(cfg["n_star"]), int(cfg["j_star"]),
                        float(cfg["horizon"]), int(cfg["seed"]))
    states = solvers.cn_fem_spde(grid, fem.assemble(fem.Mesh(int(
        cfg["mesh"]))), int(cfg["M"])).states
    row = ",".join(["%.17g"] * states.shape[1]) + "\n"
    return "".join([row % tuple(v) for v in states.tolist()])


@pytest.mark.parametrize("block", [None, 1], ids=["budget", "one-period"])
@pytest.mark.parametrize("grid", [
    dict(n_star="1024", j_star="128", M="1024", mesh="16"),
    dict(horizon="0.3", n_star="24", M="16"),
    dict(n_star="8", M="16"),
    dict(n_star="600", M="600", mesh="16"),
    dict(n_star="3", M="64", mesh="16")],
    ids=["aligned", "3-cells-per-2-steps", "2-steps-per-cell",
         "partial-last-block", "one-period-is-the-grid"])
def test_streamed_sample_path_matches_whole_path(grid, block, monkeypatch):
    # at the real block budget (2 blocks when aligned, 256 + 256 + 88
    # rows on the partial grid) and at one noise period and one state
    # per piece
    if block is not None:
        monkeypatch.setattr(solvers, "_PATH_BLOCK", block)
    cfg = dict(cli._SAMPLE_PATH_DEFAULTS, seed="5", **grid)
    assert cli.run_sample_path(cfg) == _whole_path_csv(cfg)


@pytest.mark.parametrize("grid, digest", [
    (dict(seed="0"),
     "f0afa3adc29953be8a2888cf07e3f1048dc8e034ef79a6962bd52d8edb1b17c9"),
    (dict(seed="1"),
     "64a337310fa98d2865f9d821f699e3cafee0ed58bf29b857879e187b16073c12"),
    (dict(seed="1", horizon="0.3", n_star="24", M="16"),
     "dd8f8083818433e9b95c4503245da769acb81d5a0edc95ddf0289ff9defaf48f"),
    (dict(seed="1", n_star="8", M="16"),
     "d9b8416413a93049c4608101a821fc34c9a509ffd5c81e9d6fa927f54f390d62"),
    (dict(seed="1", n_star="512", M="128"),
     "ee348e248ae8b50f7944df1d8c6cfa1ddfd9228707944b628dbdef2626258f37"),
    (dict(seed="1", n_star="600", M="600", mesh="16"),
     "4f35907d444fd839f9f3d2eedf058b3c054449b330ce3063df2917c602d4e3b5"),
    (dict(seed="1", mesh="48", j_star="64"),
     "4f1f49a41f53f9cae8154a7de779442ed2456d7a32e0de0adda8e6b6c3c59616")],
    ids=["default-seed-0", "default-seed-1", "3-cells-per-2-steps",
         "2-steps-per-cell", "4-cells-per-step", "partial-last-block",
         "mesh-48"])
def test_sample_path_bytes_are_pinned(grid, digest):
    # sha256 of the CSV as the per-row "%.17g" formatter wrote it
    text = cli.run_sample_path(dict(cli._SAMPLE_PATH_DEFAULTS, **grid))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sample_path_peak_is_its_csv_and_one_block():
    # 16 blocks of 256 noise rows: the traced peak is the CSV, a quarter
    # of it for the last block's rows and arrays, and one noise block
    cfg = dict(cli._SAMPLE_PATH_DEFAULTS, n_star="4096", M="4096",
               mesh="64")
    cli.run_sample_path(dict(cli._SAMPLE_PATH_DEFAULTS, n_star="4", M="4"))
    tracemalloc.start()
    try:
        text = cli.run_sample_path(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * len(text) + 8 * solvers._PATH_BLOCK


def test_sample_path_peak_when_one_period_is_the_whole_grid(monkeypatch):
    # 3 cells per 4096 steps share no factor: the one block holds the
    # whole grid's noise and its 63 x 4096 loads, but its states and rows
    # come in pieces of _PATH_BLOCK / nu = 65 steps
    monkeypatch.setattr(solvers, "_PATH_BLOCK", 2 ** 12)
    cfg = dict(cli._SAMPLE_PATH_DEFAULTS, n_star="3", M="4096", mesh="64")
    cli.run_sample_path(dict(cli._SAMPLE_PATH_DEFAULTS, n_star="4", M="4"))
    tracemalloc.start()
    try:
        text = cli.run_sample_path(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * len(text) + 8 * 63 * 4096 + 8 * solvers._PATH_BLOCK


def test_non_finite_sample_path_block_exits_2(monkeypatch, capsys):
    # a NaN increment in the second of two blocks: the rows of the first
    # block are never printed
    draw = noise.sample_blocks

    def spoiled(*args):
        for i, inc in enumerate(draw(*args)):
            if i == 1:
                inc[3, 5] = np.nan
            yield inc
    monkeypatch.setattr(noise, "sample_blocks", spoiled)
    assert run(["sample-path", "--set", "n_star=1024", "--set", "j_star=128",
                "--set", "M=1024", "--set", "mesh=8"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "not finite" in out.err


def test_config_file_and_override(tmp_path):
    cfgfile = os.path.join(tmp_path, "c.cfg")
    with open(cfgfile, "w") as fh:
        fh.write("study = tdr\nn_star = 8\nj_star = 8\nK = 16\n"
                 "dtau_levels = 1,2\n")
    out = os.path.join(tmp_path, "o.csv")
    assert run(["study", "--config", cfgfile, "--out", out,
                "--set", "dtau_levels=1,2,3"]) == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 5  # override applied: three levels


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok ") >= 5
