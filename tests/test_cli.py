import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from stochheat import (blas, cli, deterministic, errors, fem, noise,
                       solvers)
from stochheat.spectral import SpectralField


def run(argv):
    return cli.main(argv)


def test_config_round_trip():
    text = "study = tdr\nseed = 5\n# comment\nK = 32\n"
    cfg = cli.parse_config_text(text)
    assert cfg == {"study": "tdr", "seed": "5", "K": "32"}
    # one key per line, sorted, parses back to the same keys
    canon = "".join("%s = %s\n" % (k, cfg[k]) for k in sorted(cfg))
    assert cli.parse_config_text(canon) == cfg


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
            exact = errors.tdr_error_exact(2 ** e, 2 ** e, n_star, j_star, K)
        else:
            eigen = fem.generalized_eigen(fem.assemble(fem.Mesh(2 ** e)))
            exact = {"sdr": errors.sdr_error_exact,
                     "total": errors.total_error_exact}[study](
                         M, M, n_star, j_star, eigen, K)
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
    ("deterministic-cn-time", "deterministic-cn", {"axis": "time"}),
    ("deterministic-cn-space", "deterministic-cn", {"axis": "space"})])
def test_default_studies_match_golden_csvs(name, study, extra):
    # tests/data/<name>.csv is the default study's CSV as written by
    # commit 0c4586f (deterministic-cn-space: 1b6ea19); rewrite a file
    # only with a deliberate output change
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


def _study_maps(pairs):
    """The distinct maps of a study's levels in the order the study's pass
    meets them: the shared map, then each level's own."""
    return [pairs[0][0]] + [b for _, b, _ in pairs]


_SMALL = [("tdr", 1.0, 16, 8), ("sdr", 1.0, 16, 8), ("total", 1.0, 16, 8),
          ("total", 0.3, 24, 16), ("tdr", 0.3, 24, 16)]


@pytest.mark.parametrize("study,horizon,n_star,M,j_star,samples", [
    pytest.param(*case, 8, 6, id="-".join(map(str, case)))
    for case in _SMALL] + [
    # N and J* past every FEM row count: 256 x 256 and 1024 x 1024
    pytest.param("tdr", 1.0, 256, 8, 256, 10, id="tdr-blocks-4-4-2"),
    pytest.param("sdr", 1.0, 256, 8, 256, 10, id="sdr-blocks-4-4-2"),
    pytest.param("tdr", 1.0, 1024, 8, 1024, 2, id="tdr-blocks-1-1"),
    pytest.param("sdr", 1.0, 1024, 16, 1024, 2, id="sdr-blocks-1-1")])
def test_study_mc_columns_match_per_level_loop(study, horizon, n_star, M,
                                               j_star, samples):
    # one shared pass over the samples must give, bit for bit, what one
    # mc_error run per level gives on the same joint draws, with BLAS held
    # to one thread as in the pass
    K = 24
    levels = (1, 2, 3) if study == "tdr" else (2, 3, 4)
    rep = cli.run_study(_study_cfg(study, samples, horizon, n_star, j_star,
                                   K, M, levels))
    pairs = _level_pairs(study, horizon, n_star, j_star, K, M, levels)
    with blas.one_thread():
        sampler = solvers.JointSampler(_study_maps(pairs))
        for lvl, (row, (_, _, pairing)) in enumerate(zip(rep.rows, pairs)):
            def one(s):
                coef = sampler.coefficients(sampler.draw(s))
                a, b = coef[0], coef[lvl + 1]
                if pairing is None:
                    d = a - b
                    return float(d @ d)
                # termwise: ||a - g b[rows]||^2 plus the FEM part above K
                rows, gk, w = pairing
                d = a - gk * b[rows]
                return float(d @ d + np.sum(w * b * b))
            mean, se = errors.mc_error(lambda seeds: list(map(one, seeds)),
                                      samples, 5)
            assert row["error_mc"] == math.sqrt(mean)
            assert row["stderr"] == se / (2.0 * math.sqrt(mean))


@pytest.mark.parametrize("study", ["tdr", "sdr", "total"])
def test_study_draws_each_grid_once(study, monkeypatch):
    drawn = []
    draw = solvers.JointSampler.draw

    def counting(self, seed):
        drawn.append(seed)
        return draw(self, seed)
    monkeypatch.setattr(solvers.JointSampler, "draw", counting)
    cli.run_study(_study_cfg(study, 7, 1.0, 16, 8, 24, 8, (1, 2, 3)))
    assert drawn == [errors.sample_seed(5, i) for i in range(7)]


def test_shared_projection_keeps_grid_check():
    # the pass factors its maps jointly, so each must read its noise grid
    ok = solvers.map_regularized(16, 8, 1.0, 24, 1.0)
    # same space fold, other horizon; a FEM map on other space cells
    foreign = solvers.map_regularized(16, 8, 2.0, 24, 1.0)
    assert foreign.fold() is ok.fold()
    eigen = fem.generalized_eigen(fem.assemble(fem.Mesh(4)))
    for other in (foreign, solvers.map_cn_fem(16, 16, 1.0, eigen, 8, 8)):
        with pytest.raises(ValueError, match="different noise grids"):
            solvers.JointSampler([ok, other])
    with pytest.raises(ValueError, match="different noise grids"):
        cli._mc_rms([(ok, foreign, solvers.squared_distance(ok, foreign))],
                    2, 0)


# each study's CI grids: aligned (and 4 cells per FEM step); horizon 0.3
# on 24 cells (3 cells per 2 steps at M = 16); K = 7 < J*; J* = 24, which
# no mesh divides; J* = 8 with h down to 2^-5, where the FEM rows
# outnumber N = 16
_LAW_GRIDS = [
    ("tdr", 1.0, 16, 16, 32, 16, (1, 2, 3)),
    ("sdr", 1.0, 16, 16, 32, 16, (2, 3, 4)),
    ("total", 1.0, 16, 16, 32, 16, (2, 3, 4)),
    ("sdr", 1.0, 64, 16, 32, 16, (2, 3, 4)),
    ("tdr", 0.3, 24, 16, 32, 16, (1, 2, 3)),
    ("sdr", 0.3, 24, 16, 32, 16, (2, 3, 4)),
    ("total", 0.3, 24, 16, 32, 16, (2, 3, 4)),
    ("sdr", 1.0, 16, 16, 7, 16, (2, 3, 4)),
    ("total", 1.0, 16, 16, 7, 16, (2, 3, 4)),
    ("sdr", 1.0, 16, 24, 32, 16, (2, 3, 4)),
    ("total", 1.0, 16, 24, 32, 16, (2, 3, 4)),
    ("sdr", 1.0, 16, 8, 32, 16, (2, 3, 4, 5)),
    ("total", 1.0, 16, 8, 32, 16, (2, 3, 4, 5))]


@pytest.mark.parametrize("study,horizon,n_star,j_star,K,M,levels", [
    pytest.param(*case, id="-".join(map(str, case[:5])))
    for case in _LAW_GRIDS])
def test_joint_sampler_law_is_exact(study, horizon, n_star, j_star, K, M,
                                    levels):
    # the coefficients are linear in the draws, so the squared distance
    # summed over unit draws is E ||X - Y||^2 of the sampler's factor; it
    # must be the exact squared error, to the rounding of the exact sum
    # (4 eps times its cancellation ratio, ROADMAP Baseline).  A sample
    # draws at the rank of the coefficients: no more normals than them
    pairs = _level_pairs(study, horizon, n_star, j_star, K, M, levels)
    maps = _study_maps(pairs)
    sampler = solvers.JointSampler(maps)
    assert sampler.shape[0] <= sum(len(c) for c in sampler.coefficients(
        np.zeros(sampler.shape)))
    total = np.zeros(len(pairs))
    z = np.zeros(sampler.shape)
    for i in range(z.size):
        z.flat[i] = 1.0
        coef = sampler.coefficients(z)
        z.flat[i] = 0.0
        total += [solvers.squared_distance(a, b)(coef[0], coef[lvl + 1])
                  for lvl, (a, b, _) in enumerate(pairs)]
    for got, (a, b, _) in zip(total, pairs):
        x2, _, gy2, wy2 = solvers.distance_moments(a, b)
        e2 = errors.pair_error(a, b) ** 2
        scale = float(np.sum(x2 + gy2)) + wy2   # e2 times the ratio
        assert abs(got - e2) <= max(1e-12 * e2, 4 * np.finfo(float).eps
                                    * scale)


def test_sampler_rank_at_perfbench_sdr():
    # perfbench's sdr-mc: K = 1024 modes on 256 fold rows, 4 each, and 116
    # FEM rows: a sample draws one normal per coefficient, 1140
    n, j, K, M = 256, 256, 1024, 256
    maps = [solvers.map_cn_spectral(n, j, 1.0, K, M, M)] + [
        solvers.map_cn_fem(n, j, 1.0, fem.generalized_eigen(fem.assemble(
            fem.Mesh(2 ** e))), M, M) for e in (3, 4, 5, 6)]
    assert solvers.JointSampler(maps).shape == (1140,)


def test_negative_remainder_covariance_exits_2(monkeypatch, capsys):
    # the FEM rows' remainder covariance with an eigenvalue below -1e-12
    # of the largest FEM variance is a numerical failure, not a clamp
    eigh = np.linalg.eigh

    def flipped(a):
        vals, vecs = eigh(a)
        vals[0] = -vals[-1]
        return vals, vecs
    monkeypatch.setattr(np.linalg, "eigh", flipped)
    argv = ["study", "--seed", "1", "--samples", "4", "--set", "study=sdr",
            "--set", "n_star=16", "--set", "j_star=16", "--set", "K=32",
            "--set", "M=16", "--set", "h_levels=2,3,4"]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "numerical failure: negative FEM remainder covariance\n"


def test_joint_sampler_matches_second_moments():
    # criterion 7's maps drawn jointly: each mean square and each distance
    # of 1000 samples lies within 3 standard errors of its exact value
    n, j, K, M = 64, 64, 128, 64
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(32)))
    reg = solvers.map_regularized(n, j, 1.0, K, 1.0)
    cn = solvers.map_cn_spectral(n, j, 1.0, K, M, M)
    cnf = solvers.map_cn_fem(n, j, 1.0, eig, M, M)
    sampler = solvers.JointSampler([reg, cn, cnf])
    stats = [(lambda c, i=i: float(c[i] @ c[i]), m.second_moment())
             for i, m in enumerate((reg, cn, cnf))]
    stats += [(lambda c, i=i, f=solvers.squared_distance(a, cnf):
               f(c[i], c[2]), errors.pair_error(a, cnf) ** 2)
              for i, a in enumerate((reg, cn))]

    def sampled(seeds):
        coefs = [sampler.coefficients(sampler.draw(s)) for s in seeds]
        return [[f(c) for f, _ in stats] for c in coefs]
    means, ses = errors.mc_error(sampled, 1000, 777)
    for (_, exact), mean, se in zip(stats, means, ses):
        assert abs(mean - exact) <= 3.0 * se


# the perfbench sampled studies at seed 0, as that benchmark spells them
_MC_PINS = [
    ({"study": "tdr", "horizon": "1.0", "seed": "0", "samples": "200",
      "n_star": "256", "j_star": "256", "K": "1024",
      "dtau_levels": "4,5,6,7,8", "window": "4"},
     "5a3e9119d7fb04c8387f44cd2e5b4e810d778b82750bd383ee76e14305ecbacd"),
    ({"study": "sdr", "horizon": "1.0", "seed": "0", "samples": "50",
      "n_star": "256", "j_star": "256", "K": "1024", "M": "256",
      "h_levels": "3,4,5,6", "window": "4"},
     "b98e64031b39a3129074ac412edb538b42c0871747f1082f2affc95af3a53d92")]


@pytest.mark.parametrize("cfg, digest", _MC_PINS, ids=["tdr-mc", "sdr-mc"])
def test_mc_study_bytes_are_pinned(cfg, digest, two_blas_threads):
    # sha256 of the CSV recorded when the joint sampler first drew it (the
    # FEM study: when it first drew at the rank of the coefficients); its
    # exact columns are the cell-draw pass's, its Monte Carlo columns lie
    # within 2.5 standard errors of them.  The bits of a FEM study follow
    # the shapes of the set-up's products, so _SAMPLER_CHUNK moves them,
    # and so would OpenBLAS's threads: the pass holds it to one, and the
    # run starts from two (two_blas_threads), also on a 1-core host
    text = cli.run_study(dict(cfg)).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _blas_count():
    get_set = blas.threads()
    return get_set and get_set[0]()


class _DrawFailed(Exception):
    pass


@pytest.mark.parametrize("failure", ["draw", "grid-check"])
def test_failed_mc_pass_leaves_nothing_behind(failure, monkeypatch):
    ok = solvers.map_regularized(16, 8, 1.0, 24, 1.0)
    # same space fold, other horizon: the sampler's set-up refuses it
    foreign = solvers.map_regularized(16, 8, 2.0, 24, 1.0)
    other, expect = foreign, ValueError
    if failure == "draw":
        bad = errors.sample_seed(0, 3)
        draw = solvers.JointSampler.draw

        def failing(self, seed):
            if seed == bad:
                raise _DrawFailed("draw")
            return draw(self, seed)
        monkeypatch.setattr(solvers.JointSampler, "draw", failing)
        other, expect = ok, _DrawFailed
    threads, count = threading.active_count(), _blas_count()
    with pytest.raises(expect):
        cli._mc_rms([(ok, other, solvers.squared_distance(ok, other))],
                    6, 0)
    assert threading.active_count() == threads
    assert _blas_count() == count


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


@pytest.mark.parametrize("grid, digest", [
    (dict(M="64", h_levels="2,3,4"),
     "972ef98b702f10828989a9c8fa9098a7289368efebc5a2403628a8db7dc1e25a"),
    (dict(h_levels="4,2,3"),
     "cdfc960d73681e49eb9e7277eae40c8aa0d361a5191362bcccc0e59b6dcdd331"),
    (dict(M="1000", h_levels="4,2,3"),
     "c827b643fb36bb073eed62d6895c05a462648b69bfd9a7bae4dd180686b3416b"),
    (dict(h_levels="1,2,3"),
     "39011ad2c29758988cbcfd925a09816b9588ddce286d8fd3bf0bc149f774737b")],
    ids=["M-64", "levels-out-of-order", "two-step-blocks", "one-node"])
def test_deterministic_space_study_bytes_are_pinned(grid, digest):
    # sha256 of the CSV of the stacked banded run, for the grids CI runs
    cfg = dict(cli._DEFAULTS["deterministic-cn"], axis="space", window="3",
               **grid)
    text = cli.run_study(cfg).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("study, grid", [
    ("model-space", ["n_star=16", "dx_levels=2,3"]),
    ("model-time", ["j_star=16", "dt_levels=2,3"])])
def test_modeling_study_at_a_huge_horizon_runs_clean(study, grid, capsys):
    # 2 lam_k^2 t overflows in the mode tail's correction terms, which
    # are all 0 there: no RuntimeWarning, no traceback
    argv = ["study", "--set", "study=" + study, "--set", "horizon=1e300",
            "--set", "K=32", "--set", "window=2"]
    for item in grid:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("study,level,")


@pytest.mark.parametrize("argv", [
    ["sample-path", "--set", "horizon=1e300", "--set", "n_star=4", "--set",
     "M=4", "--set", "mesh=4"],
    ["study", "--set", "study=deterministic-cn", "--set", "axis=time",
     "--set", "horizon=1e308", "--set", "dtau_levels=1,2"],
    ["study", "--set", "study=deterministic-cn", "--set", "axis=space",
     "--set", "horizon=1e308", "--set", "M=2"]],
    ids=["sample-path", "deterministic-time", "deterministic-space"])
def test_stepping_at_a_huge_horizon_exits_2_without_a_warning(argv, capsys):
    # the step loads, rho, the exact trajectory and the CN band
    # overflow: the finiteness checks fail the run, with no
    # RuntimeWarning and no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("numerical failure:")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("settings, cause", [
    (["horizon=1e-300", "n_star=4", "j_star=4", "M=4", "mesh=4"],
     "the step loads underflow"),
    (["horizon=1e-210", "n_star=4", "j_star=4", "M=4", "mesh=4"],
     "the step loads underflow"),
    (["horizon=5e-324"], "the noise cell width dt underflows"),
    (["horizon=1e-322", "n_star=1024"], "the noise cell width dt underflows"),
    (["horizon=1e-320", "n_star=1024", "j_star=1024", "M=1024", "mesh=4"],
     "the noise cell width dt underflows")],
    ids=["1e-300", "1e-210", "5e-324", "1e-322-n_star-1024",
         "1e-320-area-0"])
def test_sample_path_whose_step_loads_underflow_exits_2(settings, cause,
                                                       capsys):
    # the loads' overlaps carry a factor dtau: at 1e-300 they underflow to
    # 0, at 1e-210 below the normal range.  Below that the cell width dt
    # itself is 0 or subnormal (at 1e-320 the cell area dt dx is 0): an
    # all-zero (or a truncated) path must not exit 0, nor fail with a
    # traceback or the wrong cause
    argv = ["sample-path"]
    for s in settings:
        argv += ["--set", s]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "numerical failure: %s\n" % cause


@pytest.mark.parametrize("study", ["tdr", "sdr", "total", "model-space",
                                   "model-time"])
@pytest.mark.parametrize("horizon, cells, what", [
    ("1e-320", ["n_star=16", "j_star=16"], "width dt"),
    ("1e-305", ["n_star=16", "j_star=1024"], "area dt dx")],
    ids=["subnormal-dt", "subnormal-area"])
def test_exact_study_whose_noise_cells_underflow_exits_2(study, horizon,
                                                         cells, what, capsys):
    # below the normal range dt keeps too few digits, and the noise scale
    # 1/(dt dx) overflows, so a moment would form 0 * inf: the study must
    # fail, not print nan errors and exit 0
    argv = ["study", "--set", "study=" + study, "--set", "horizon=" + horizon,
            "--set", "K=32", "--set", "M=16", "--set", "window=2"]
    for item in cells + ["dtau_levels=1,2", "h_levels=2,3", "dx_levels=10,11",
                         "dt_levels=2,3"]:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("numerical failure: the noise cell %s underflows\n"
                       % what)


def test_monte_carlo_stderr_at_a_huge_horizon_is_not_zero(capsys):
    # the squared errors lie near 1e-301, where their squared deviations
    # underflow unless scaled: the stderr column would read 0
    argv = ["study", "--samples", "2", "--set", "study=total", "--set",
            "horizon=1e300", "--set", "n_star=4", "--set", "j_star=4",
            "--set", "K=8", "--set", "M=4", "--set", "h_levels=1,2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert len(rows) == 2
    assert all(float(row.split(",")[-1]) > 0.0 for row in rows)


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
    # no run loads scipy: neither start-up nor an exact study (the mode
    # tail's trigamma is computed in-package), nor the banded solves of
    # a sample path, a deterministic study, a Monte Carlo study or the
    # selftest (numpy's own LAPACK); the CSV kernel's tables are not
    # built at import
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
    stepped = [
        ["sample-path", "--seed", "1"],
        ["study", "--set", "study=deterministic-cn", "--set", "axis=time"],
        ["study", "--set", "study=deterministic-cn", "--set", "axis=space"],
        ["study", "--samples", "2", "--set", "study=sdr", "--set",
         "n_star=64", "--set", "j_star=16", "--set", "K=32", "--set",
         "M=64", "--set", "h_levels=2,3,4"],
    ]
    code = ("import contextlib, io, sys, stochheat.cli as cli\n"
            "print('scipy' in sys.modules)\n"
            "print(cli._csv_tables.cache_info().currsize)\n"
            "for s in %r:\n"
            "    argv = ['study', '--samples', '0', '--out', %r]\n"
            "    for kv in s:\n"
            "        argv += ['--set', kv]\n"
            "    assert cli.main(argv) == 0, s\n"
            "print('scipy' in sys.modules)\n"
            "for argv in %r:\n"
            "    assert cli.main(argv + ['--out', %r]) == 0, argv\n"
            "    print('scipy' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['selftest']) == 0\n"
            "print('scipy' in sys.modules)\n"
            % (studies, os.devnull, stepped, os.devnull))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "0", "False"] + ["False"] * 5


def test_cli_import_leaves_concurrent_futures_out():
    # no run imports a thread pool, and only a run imports the BLAS
    # thread hold: start-up does neither
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, stochheat.cli\n"
            "print('concurrent.futures' in sys.modules)\n"
            "print('stochheat.blas' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]


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
     "2a2afedeffe662118c9d1d8d99dbd4b43897d45940624866898aedc09c217ff4"),
    (dict(seed="1"),
     "179d4b5e299b05deb38ca9ae978dca62295f2dec9a9742f39b149a28bad90dba"),
    (dict(seed="1", horizon="0.3", n_star="24", M="16"),
     "94521dd3ff631242fffdf6589c32e6fd42ef0b777404769eccc055bf546fce1e"),
    (dict(seed="1", n_star="8", M="16"),
     "53ed34c6193cecec40adf8f86c2cc6b4c37c1c4f6f5812fdc16fc13245833971"),
    (dict(seed="1", n_star="512", M="128"),
     "967ca10c5a5321efef4f9af23fc7119f07480cb028ab80321b1f9183a094588d"),
    (dict(seed="1", n_star="600", M="600", mesh="16"),
     "c0b7c682df202fe922eef574fecb7575df02af4ee202d879f19e08241a6bd4a7"),
    (dict(seed="1", mesh="48", j_star="64"),
     "acd0b673025236425d213d99c32989e3981646ce88e0ae70dae10d1bd5604e18")],
    ids=["default-seed-0", "default-seed-1", "3-cells-per-2-steps",
         "2-steps-per-cell", "4-cells-per-step", "partial-last-block",
         "mesh-48"])
def test_sample_path_bytes_are_pinned(grid, digest):
    # sha256 of the CSV as the per-row "%.17g" formatter wrote it
    text = cli.run_sample_path(dict(cli._SAMPLE_PATH_DEFAULTS, **grid))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("block", [None, 2 ** 10, 2 ** 12],
                         ids=["default-blocks", "small-blocks", "mid-blocks"])
@pytest.mark.parametrize("grid, digest", [
    (dict(seed="0", n_star="1024", j_star="1024", M="1024", mesh="512"),
     "27b632861fa21e6ecbe202ebd55edc7b7e054b9f49fcb57c362c9fff869eacd4"),
    (dict(seed="1", horizon="0.3", n_star="24", M="16"),
     "94521dd3ff631242fffdf6589c32e6fd42ef0b777404769eccc055bf546fce1e")],
    ids=["perfbench-size", "3-cells-per-2-steps"])
def test_sample_path_bytes_in_blocks_are_pinned(grid, digest, block,
                                                monkeypatch):
    # sha256 of the CSV as the serial block loop wrote it: the
    # perfbench-size path in 16 blocks (default), 1024 (small) and 256
    # (mid), the non-aligned one in 1, 8 and 1.  Each load is a fixed-order
    # sum over its own cells with no BLAS call, so every block size, and
    # OpenBLAS held to one thread or not, writes the same bytes
    if block is not None:
        monkeypatch.setattr(solvers, "_PATH_BLOCK", block)
    cfg = dict(cli._SAMPLE_PATH_DEFAULTS, **grid)
    text = cli.run_sample_path(cfg)
    with blas.one_thread():
        assert cli.run_sample_path(cfg) == text
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class _RenderFailed(Exception):
    pass


@pytest.fixture
def two_blas_threads():
    """OpenBLAS held at two threads for the test, so that a pass which
    leaves its hold of one thread in place, or takes none, shows."""
    get_set = blas.threads()
    if get_set is None:
        yield
        return
    get, put = get_set
    prev = get()
    put(2)
    try:
        yield
    finally:
        put(prev)


@pytest.mark.parametrize("failure", ["draw", "advance", "consumer"])
def test_failed_sample_path_leaves_nothing_behind(failure, two_blas_threads,
                                                  monkeypatch, capsys):
    # 4 noise blocks of 16 rows: the second one fails as it is drawn
    # (draw), its NaN fails the stepping (advance: exit 2, no rows), or the
    # rows of the second block fail to render (consumer).  Every block is
    # drawn on the calling thread, with no other thread started
    monkeypatch.setattr(solvers, "_PATH_BLOCK", 16 * 16)
    draw, drawn_on, alive = noise.sample_blocks, [], []

    def spoiled(*args):
        for i, inc in enumerate(draw(*args)):
            drawn_on.append(threading.current_thread())
            alive.append(threading.active_count())
            if i == 1 and failure == "draw":
                raise _DrawFailed("draw")
            if i == 1 and failure == "advance":
                inc[3, 5] = np.nan
            yield inc
    monkeypatch.setattr(noise, "sample_blocks", spoiled)
    render, rendered = cli._csv_rows, []

    def failing(states):
        rendered.append(len(states))
        if failure == "consumer" and len(rendered) == 3:
            raise _RenderFailed("render")
        return render(states)
    monkeypatch.setattr(cli, "_csv_rows", failing)
    argv = ["sample-path", "--set", "n_star=64", "--set", "j_star=16",
            "--set", "M=64", "--set", "mesh=8"]
    threads, count = threading.active_count(), _blas_count()
    if failure == "advance":
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "not finite" in out.err
    else:
        with pytest.raises(_DrawFailed if failure == "draw"
                           else _RenderFailed):
            run(argv)
    assert threading.active_count() == threads
    assert _blas_count() == count
    assert len(drawn_on) >= 2
    assert drawn_on == [threading.current_thread()] * len(drawn_on)
    assert alive == [threads] * len(alive)


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


def test_sample_path_peak_without_the_period_overlaps():
    # 1000 cells per 999 steps: one period is the whole grid.  The loads
    # add each step's staircase of overlaps, so no 999 x 1000 period
    # matrix (8.0 MB) is built: the traced peak is the CSV, the one
    # block's noise (1000 x 256), its hat readings and its loads
    cfg = dict(cli._SAMPLE_PATH_DEFAULTS, n_star="1000", M="999")
    cli.run_sample_path(dict(cli._SAMPLE_PATH_DEFAULTS, n_star="4", M="4"))
    tracemalloc.start()
    try:
        text = cli.run_sample_path(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * len(text) + 8 * (1000 * 256 + 2 * 1000 * 63)


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
