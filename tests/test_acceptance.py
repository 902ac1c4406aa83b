"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py``; each test prints
``criterion N PASS/FAIL: detail`` before asserting, so the tee'd log
carries a line per criterion even on failure.
"""

import math
import time

import numpy as np

from stochheat import cli, deterministic, errors, fem, noise, solvers
from stochheat.spectral import SpectralField


def report(num, ok, detail):
    print("criterion %d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def run_default_study(name, **extra):
    cfg = dict(cli._DEFAULTS[name])
    cfg.update({k: str(v) for k, v in extra.items()})
    t0 = time.perf_counter()
    rep = cli.run_study(cfg)
    return rep, time.perf_counter() - t0


def test_criterion_1_model_space_rate():
    rep, secs = run_default_study("model-space")
    ok = 0.42 <= rep.slope <= 0.58 and secs < 60.0
    report(1, ok, "slope=%.4f runtime=%.1fs" % (rep.slope, secs))


def test_criterion_2_model_time_rate():
    rep, secs = run_default_study("model-time")
    ok = 0.20 <= rep.slope <= 0.30 and secs < 60.0
    report(2, ok, "slope=%.4f runtime=%.1fs" % (rep.slope, secs))


def test_criterion_3_time_discretization_rate():
    rep, secs = run_default_study("tdr")
    ok = rep.slope >= 0.20 and secs < 120.0
    report(3, ok, "slope=%.4f runtime=%.1fs" % (rep.slope, secs))


def test_criterion_4_space_discretization_rate():
    rep, secs = run_default_study("sdr")
    ok = 0.42 <= rep.slope <= 0.62 and secs < 300.0
    report(4, ok, "slope=%.4f runtime=%.1fs" % (rep.slope, secs))


def test_criterion_5_total_error_split():
    # total <= tdr + sdr on the configurations of criteria 3 and 4
    worst = -math.inf
    # criterion 3 family: noise 1024x1024, dtau sweep, fixed mesh h=1/64
    eig64 = fem.generalized_eigen(fem.assemble(fem.Mesh(64)))
    for e in range(4, 10):
        M = 2 ** e
        tdr = errors.tdr_error_exact(M, M, 1024, 1024, K=4096)
        sdr = errors.sdr_error_exact(M, M, 1024, 1024, eig64, K=4096)
        tot = errors.total_error_exact(M, M, 1024, 1024, eig64, K=4096)
        worst = max(worst, (tot - (tdr + sdr)) / (tdr + sdr))
    # criterion 4 family: dtau = 2^-12, h sweep, matched noise grid
    n, j, K, M = 4096, 1024, 4096, 4096
    tdr = errors.tdr_error_exact(M, M, n, j, K=K)
    # the spectral and regularized maps do not depend on the mesh
    map_s = solvers.map_cn_spectral(n, j, 1.0, K, M, M)
    map_u = solvers.map_regularized(n, j, 1.0, K, 1.0)
    for e in range(3, 8):
        eig = fem.generalized_eigen(fem.assemble(fem.Mesh(2 ** e)))
        map_h = solvers.map_cn_fem(n, j, 1.0, eig, M, M)
        sdr = errors.pair_error(map_s, map_h)
        tot = errors.pair_error(map_u, map_h)
        worst = max(worst, (tot - (tdr + sdr)) / (tdr + sdr))
    ok = worst <= 1e-12
    report(5, ok, "max relative excess=%.3e" % worst)


def test_criterion_6_modeling_error_oracle():
    t0 = time.perf_counter()
    closed = errors.modeling_error_exact(1.0, 2, 2, 200, include_tail=False)
    brute = errors.modeling_error_quadrature(1.0, 2, 2, 200)
    secs = time.perf_counter() - t0
    rel = abs(closed - brute) / brute
    ok = rel <= 1e-6 and secs < 30.0
    report(6, ok, "relative gap=%.2e runtime=%.1fs" % (rel, secs))


def test_criterion_7_monte_carlo_oracle():
    t0 = time.perf_counter()
    n, j, K, M = 64, 64, 128, 64
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(32)))
    maps = {
        "regularized": solvers.map_regularized(n, j, 1.0, K, 1.0),
        "cn-spectral": solvers.map_cn_spectral(n, j, 1.0, K, M, M),
        "cn-fem": solvers.map_cn_fem(n, j, 1.0, eig, M, M),
    }
    sigmas = {}
    for name, m in maps.items():
        def one(seed, m=m):
            x = m.reconstruct(noise.sample(n, j, 1.0, seed))
            return float(x @ x)
        mean, se = errors.mc_error(lambda seeds: list(map(one, seeds)),
                                  1000, base_seed=777)
        sigmas[name] = abs(mean - m.second_moment()) / se
    secs = time.perf_counter() - t0
    ok = all(s <= 3.0 for s in sigmas.values()) and secs < 120.0
    report(7, ok, "deviations=%s runtime=%.1fs"
           % ({k: round(v, 2) for k, v in sigmas.items()}, secs))


def test_criterion_8_deterministic_cn_rates():
    t0 = time.perf_counter()
    rep_t, _ = run_default_study("deterministic-cn", axis="time")
    rep_h, _ = run_default_study("deterministic-cn", axis="space")
    secs = time.perf_counter() - t0
    ok = rep_t.slope >= 0.45 and rep_h.slope >= 1.8 and secs < 60.0
    report(8, ok, "time slope=%.3f space slope=%.3f runtime=%.1fs"
           % (rep_t.slope, rep_h.slope, secs))


def test_criterion_9_invariant_suite(tmp_path):
    t0 = time.perf_counter()
    checks = {}

    # amplification factor bounded by one over a wide parameter sweep
    mus = np.concatenate([[0.0], np.logspace(-3.0, 9.0, 40)])
    bound = max(abs(deterministic.amplification(mu, m, dtau))
                for mu in mus for m in (1, 2, 3, 10, 100)
                for dtau in (1e-4, 1e-2, 0.5))
    checks["amplification"] = bound <= 1.0 + 1e-14

    # cell averaging contracts the L2 norm on 100 random fields
    rng = np.random.default_rng(12345)
    contract = True
    for _ in range(100):
        f = SpectralField(rng.normal(size=8))
        P = noise.project_pi(
            lambda t, x, f=f: np.broadcast_to(f.evaluate(x), t.shape[:1]
                                              + x.shape[1:]),
            1, 8, npts=8, nsub=32)
        step_norm2 = float((P**2).sum()) / 8.0
        contract &= step_norm2 <= f.l2_norm() ** 2 + 1e-10
    checks["projection contraction"] = contract

    # H1 energy decay of an unforced CN-FEM trajectory
    system = fem.assemble(fem.Mesh(16))
    traj = deterministic.modified_cn_fem(
        SpectralField(rng.normal(size=6)), system, 12, 0.01)
    semis = [fem.h1_seminorm(traj.states[m], system) for m in range(13)]
    checks["H1 decay"] = all(b <= a + 1e-12
                             for a, b in zip(semis, semis[1:]))

    # discrete elliptic solve is nodally exact on f = 1
    v = fem.elliptic_solve_discrete(lambda x: np.ones_like(x),
                                    fem.assemble(fem.Mesh(32)))
    x = np.arange(1, 32) / 32.0
    checks["nodal exactness"] = float(np.abs(v - (x * x - x) / 2.0).max()) \
        <= 1e-10

    # noise variance and coarsening consistency
    gg = noise.sample(200, 100, 1.0, seed=2)
    var = gg.increments.var()
    checks["noise variance"] = abs(var - gg.dt * gg.dx) < 0.05 * gg.dt * gg.dx
    cc = noise.coarsen(gg, 4, 4)
    manual = gg.increments.reshape(50, 4, 25, 4).sum(axis=(1, 3))
    checks["coarsening"] = np.array_equal(cc.increments, manual)

    # byte-identical CSV under a fixed seed
    import os
    a, b = os.path.join(tmp_path, "a.csv"), os.path.join(tmp_path, "b.csv")
    def args(path):
        return ["study", "--seed", "7", "--samples", "3", "--out", path,
                "--set", "study=tdr", "--set", "n_star=16",
                "--set", "j_star=16", "--set", "K=32",
                "--set", "dtau_levels=1,2,3"]
    assert cli.main(args(a)) == 0
    assert cli.main(args(b)) == 0
    checks["csv determinism"] = open(a, "rb").read() == open(b, "rb").read()

    secs = time.perf_counter() - t0
    ok = all(checks.values()) and secs < 60.0
    report(9, ok, "%s runtime=%.1fs"
           % ({k: bool(v) for k, v in checks.items()}, secs))
