import functools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from stochheat import cli, deterministic, errors, fem, noise, solvers


def test_modeling_error_zero_at_start():
    assert errors.modeling_error_exact(0.0, 4, 4, 10) == 0.0


def test_modeling_error_against_quadrature_oracle():
    for t in (1.0, 0.75):   # 0.75: inside a noise cell
        a = errors.modeling_error_exact(t, 2, 2, 60, include_tail=False)
        b = errors.modeling_error_quadrature(t, 2, 2, 60)
        assert abs(a - b) <= 1e-8 * b


def test_modeling_error_quadrature_raises_on_negative_sum(monkeypatch):
    # captured energy above the kernel energy is not clamped to 0
    integrals = errors._cell_time_integrals

    def inflated(*args, **kwargs):
        s1, s2 = integrals(*args, **kwargs)
        return 10.0 * s1, s2
    monkeypatch.setattr(errors, "_cell_time_integrals", inflated)
    with pytest.raises(RuntimeError, match="beyond rounding"):
        errors.modeling_error_quadrature(1.0, 2, 2, 4)


def test_modeling_error_tail_tiny_for_large_K():
    lo = errors.modeling_error_exact(1.0, 8, 8, 2000, include_tail=False)
    hi = errors.modeling_error_exact(1.0, 8, 8, 2000, include_tail=True)
    assert hi >= lo
    # tail of sum 1/(2 lam^2) beyond K=2000 is about 2.5e-5 in Z^2
    assert hi - lo < 1e-4
    # and including the tail approximates a much larger truncation
    ref = errors.modeling_error_exact(1.0, 8, 8, 200000, include_tail=False)
    assert abs(hi - ref) < 1e-6


@pytest.mark.parametrize("K, t", [(40, 0.3), (8, 1e-3), (3, 0.01), (1, 1.0)]
                         + [(K, f * 373.0 / (math.pi * (K + 1)) ** 2)
                            for K in (0, 7, 40) for f in (0.999, 1.001)])
def test_mode_tail_matches_mpmath_series(K, t):
    # sum_{k > K} (1 - exp(-2 lam_k^2 t)) / (2 lam_k^2); at (40, 0.3) the
    # exponential part underflows and the tail is 1.25082e-3, not 0.  Just
    # below 2 pi^2 (K + 1)^2 t = 746 one chunk of modes past K is summed,
    # just above none.
    # (nsum extrapolates wrongly once t is below about 1e-4.)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.nsum(
            lambda k: -mpmath.expm1(-2 * (k * mpmath.pi) ** 2 * t)
            / (2 * (k * mpmath.pi) ** 2), [K + 1, mpmath.inf]))
    assert abs(errors._mode_tail(K, t) - ref) <= 1e-13 * ref
    assert errors._mode_tail(K, 0.0) == 0.0


@pytest.mark.parametrize("K", [32, 8192])
@pytest.mark.parametrize("t", [2.2e-6, 1e-6, 2.4e-7, 1e-8, 1e-10])
def test_mode_tail_at_small_t_matches_the_series(K, t):
    # below 2 pi^2 (K + 4096)^2 t = 746 (all but K = 8192 at t >= 1e-6;
    # 2.2e-6 and 2.4e-7 lie just below it for K = 32 and 8192) the tail
    # is the Poisson-summed whole series less its first K terms;
    # the reference sums the terms one by one, exactly, until their
    # exponentials underflow, and the trigamma value past that
    pis2 = math.pi ** 2
    N = K + int(math.sqrt(800.0 / (2.0 * pis2 * t)))
    lam2 = pis2 * np.arange(K + 1, N + 1, dtype=float) ** 2
    ref = (math.fsum(-np.expm1(-2.0 * lam2 * t) / (2.0 * lam2))
           + errors._trigamma(N + 1) / (2.0 * pis2))
    assert abs(errors._mode_tail(K, t) - ref) <= 1e-13 * ref


def test_mode_tail_at_a_tiny_horizon_returns_at_once():
    # the series would take about 1.6/sqrt(t) modes
    start = time.perf_counter()
    tail = errors._mode_tail(32, 1e-300)
    assert time.perf_counter() - start < 0.1
    assert tail == pytest.approx(math.sqrt(1e-300 / (2.0 * math.pi)),
                                 rel=1e-12)


def test_mode_tail_at_a_huge_horizon_is_the_trigamma_term():
    # 2 lam_k^2 t overflows: past 746 every correction term is 0, so
    # none is formed and no overflow warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail = errors._mode_tail(32, 1e300)
    assert tail == errors._trigamma(33) / (2.0 * math.pi ** 2)


@pytest.mark.parametrize(
    "K", list(range(65)) + [2 ** k for k in range(7, 21)] + [10 ** 7])
def test_trigamma_matches_mpmath(K):
    # x = K + 1 below 16 takes the recurrence, above it the series alone
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.psi(1, K + 1)
        assert abs(errors._trigamma(K + 1) - ref) <= 1e-15 * ref


def test_modeling_error_monotone_under_refinement():
    base = errors.modeling_error_exact(1.0, 8, 8, 4000)
    finer_x = errors.modeling_error_exact(1.0, 8, 32, 4000)
    finer_t = errors.modeling_error_exact(1.0, 64, 8, 4000)
    assert finer_x < base
    assert finer_t < base


def test_modeling_error_second_moment_identity():
    # E||u_hat(T)||^2 + Z(T)^2 = E||u(T)||^2 for the K-truncated pair,
    # because the regularized solution is the projection of the exact one
    n, j, K = 8, 8, 800
    m = solvers.map_regularized(n, j, 1.0, K, 1.0)
    lam2 = (math.pi * np.arange(1, K + 1)) ** 2
    exact2 = float((-np.expm1(-2.0 * lam2) / (2.0 * lam2)).sum())
    z = errors.modeling_error_exact(1.0, n, j, K, include_tail=False)
    assert abs(m.second_moment() + z**2 - exact2) < 1e-13


def test_tdr_against_monte_carlo():
    n = j = 16
    K, M = 64, 8
    exact = errors.tdr_error_exact(M, M, n, j, K=K)
    u = solvers.map_regularized(n, j, 1.0, K, 1.0)
    a = solvers.map_cn_spectral(n, j, 1.0, K, M, M)

    def one(seed):
        g = noise.sample(n, j, 1.0, seed)
        d = u.reconstruct(g) - a.reconstruct(g)
        return float(d @ d)

    mean, se = errors.mc_error(lambda seeds: list(map(one, seeds)), 500,
                               base_seed=21)
    assert abs(mean - exact**2) < 3.5 * se


def test_tdr_decreases_with_steps():
    vals = [errors.tdr_error_exact(M, M, 64, 64, K=256)
            for M in (4, 8, 16, 32)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_sdr_decreases_with_mesh():
    out = []
    for n in (4, 8, 16):
        eig = fem.generalized_eigen(fem.assemble(fem.Mesh(n)))
        out.append(errors.sdr_error_exact(32, 32, 32, 32, eig, K=128))
    assert out[2] < out[1] < out[0]


def test_triangle_inequality_exact():
    # ||u - U_h|| <= ||u - U|| + ||U - U_h|| with everything on one grid
    n = j = 32
    K = 128
    for M in (8, 16):
        for mesh_n in (8, 16):
            eig = fem.generalized_eigen(fem.assemble(fem.Mesh(mesh_n)))
            tdr = errors.tdr_error_exact(M, M, n, j, K=K)
            sdr = errors.sdr_error_exact(M, M, n, j, eig, K=K)
            tot = errors.total_error_exact(M, M, n, j, eig, K=K)
            assert tot <= tdr + sdr + 1e-12 * (tdr + sdr)


def _dense_rms(a, b, gram):
    """sqrt(E ||X - Y||^2) from the materialized time profiles: each
    moment is sum gram (A_a A_b^T) (B_a B_b^T) / cell_area."""
    def moment(x, y, g):
        return float(np.sum(g * (x.time.dense() @ y.time.dense().T)
                            * (x.space() @ y.space().T))) / x.cell_area
    return math.sqrt(moment(a, a, np.eye(a.space().shape[0]))
                     - 2.0 * moment(a, b, gram)
                     + moment(b, b, np.eye(b.space().shape[0])))


def test_tdr_needs_no_cell_integral_matrix(monkeypatch):
    # the sine space term of a tdr moment is closed form (mode_cell_sq_sums)
    def dense(K, j_star):
        raise AssertionError("dense cell integrals built")
    monkeypatch.setattr(noise, "mode_cell_integrals", dense)
    rep = cli.run_study({
        "study": "tdr", "horizon": "1.0", "seed": "0", "samples": "0",
        "n_star": "64", "j_star": "32", "K": "128", "dtau_levels": "2,3,4",
        "window": "2"})
    assert len(rep.rows) == 3
    assert errors.tdr_error_exact(4, 8, 64, 32, K=128) > 0.0


def test_no_route_needs_the_cell_integral_matrix(monkeypatch, capsys):
    # every sine space factor goes through noise.sine_cell_fold
    def dense(K, j_star):
        raise AssertionError("dense cell integrals built")
    monkeypatch.setattr(noise, "mode_cell_integrals", dense)
    grids = {"horizon": "1.0", "seed": "0", "n_star": "16", "j_star": "24",
             "K": "100", "M": "16", "window": "2"}
    for study, samples in (("sdr", "0"), ("total", "0"), ("sdr", "3"),
                           ("total", "3")):
        rep = cli.run_study(dict(grids, study=study, samples=samples,
                                 h_levels="2,3,4"))
        assert all(row["error_exact"] > 0.0 for row in rep.rows)
    rep = cli.run_study(dict(grids, study="tdr", samples="3",
                             dtau_levels="2,3,4"))
    assert all(row["error_mc"] > 0.0 for row in rep.rows)
    traj = solvers.cn_time_discrete(noise.sample(16, 24, 1.0, 0), 100, 8)
    assert np.isfinite(traj.states).all()
    assert cli.run_selftest() == 0
    assert "FAIL" not in capsys.readouterr().out


def test_exact_space_errors_need_no_cell_fold(monkeypatch):
    # the exact cell side is closed form: neither the folded sine rows nor
    # the hat-cell overlaps are built, where J divides J*, where J = 16
    # does not divide J* = 24, and where the mesh is finer than the cells
    def dense(*args):
        raise AssertionError("cell fold built")
    monkeypatch.setattr(noise, "sine_cell_fold", dense)
    monkeypatch.setattr(fem, "hat_cell_overlap_matrix", dense)
    grids = {"horizon": "1.0", "seed": "0", "samples": "0", "n_star": "16",
             "K": "100", "M": "16", "window": "2"}
    for j_star, levels in (("16", "2,3,4"), ("24", "2,3,4"),
                           ("8", "2,3,4,5")):
        for study in ("sdr", "total"):
            rep = cli.run_study(dict(grids, study=study, j_star=j_star,
                                     h_levels=levels))
            assert all(row["error_exact"] > 0.0 for row in rep.rows)


def test_exact_sdr_peak_memory():
    # no J* x J* fold, no nu x J* overlaps: at J* = 4096 the fold alone
    # took 128 MiB
    tracemalloc.start()
    try:
        rep = cli.run_study({
            "study": "sdr", "horizon": "1.0", "seed": "0", "samples": "0",
            "n_star": "4096", "j_star": "4096", "K": "16384", "M": "4096",
            "h_levels": "3,4,5,6,7,8,9", "window": "2"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == 7
    assert peak <= 32 * 2 ** 20


def test_exact_sdr_rate_regimes():
    # the h^1/2 rate holds while the mesh is coarser than the noise cells
    # (dx = 2^-6); past them the slope settles near 3/2, with a jump across
    # h = dx.  Meshes finer than the cells take 2 to 16 offset classes
    rep = cli.run_study({
        "study": "sdr", "horizon": "1.0", "seed": "0", "samples": "0",
        "n_star": "4096", "j_star": "64", "K": "16384", "M": "4096",
        "h_levels": "3,4,5,6,7,8,9,10", "window": "2"})
    dx = 2.0 ** -6
    for coarse, fine in zip(rep.rows, rep.rows[1:]):
        slope = math.log2(coarse["error_exact"] / fine["error_exact"])
        if fine["h"] >= 4 * dx:
            assert 0.45 <= slope <= 0.9, (coarse["h"], slope)
        if coarse["h"] <= dx / 4:
            assert 1.4 <= slope <= 1.6, (coarse["h"], slope)
        if coarse["h"] == dx:
            assert slope > 1.6, slope


def test_exact_tdr_rate_regimes():
    # the dtau^1/4 rate holds while each step spans at least 4 noise cells
    # (dt = 2^-8); the slope jumps above 2.5 across dtau = dt and settles
    # near 3/2 once each cell spans at least 4 steps
    rep = cli.run_study({
        "study": "tdr", "horizon": "1.0", "seed": "0", "samples": "0",
        "n_star": "256", "j_star": "256", "K": "16384",
        "dtau_levels": "4,5,6,7,8,9,10,11", "window": "2"})
    dt = 2.0 ** -8
    for coarse, fine in zip(rep.rows, rep.rows[1:]):
        slope = math.log2(coarse["error_exact"] / fine["error_exact"])
        if fine["dtau"] >= 4 * dt:
            assert 0.2 <= slope <= 0.45, (coarse["dtau"], slope)
        if coarse["dtau"] == dt:
            assert slope > 2.5, slope
        if coarse["dtau"] <= dt / 4:
            assert 1.4 <= slope <= 1.65, (coarse["dtau"], slope)


def test_modeling_error_needs_no_overlap_sq_sum(monkeypatch):
    # every regularized and aligned CN profile is geometric: the time Gram
    # and the sampled per-step weights come from its tuple, so neither the
    # dense overlaps nor the CN step table is built, at any t
    def dense(*args):
        raise AssertionError("dense time profile built")
    monkeypatch.setattr(noise, "time_overlaps", dense)
    for mod in (deterministic, solvers):   # solvers imports it by name
        monkeypatch.setattr(mod, "step_factors", dense)
    # half a cell past t = 0.5; the dense profile gives 0.07348605175821463
    got = errors.modeling_error_exact(0.5 + 0.5 / 1024, 1024, 1024, 8192)
    assert abs(got - 0.07348605175821463) <= 1e-13 * got
    for study, key in (("model-space", "dx_levels"),
                       ("model-time", "dt_levels")):
        rep = cli.run_study({
            "study": study, "horizon": "1.0", "seed": "0", "samples": "0",
            "n_star": "64", "j_star": "32", "K": "128", key: "2,3,4",
            "window": "2"})
        assert len(rep.rows) == 3 and rep.rows[-1]["error_exact"] > 0.0
    grids = {"horizon": "1.0", "seed": "0", "samples": "3", "n_star": "16",
             "j_star": "16", "K": "64", "M": "16", "window": "2"}
    for study, key in (("tdr", "dtau_levels"), ("total", "h_levels")):
        rep = cli.run_study(dict(grids, study=study, **{key: "2,3,4"}))
        assert all(row["error_mc"] > 0.0 for row in rep.rows)


def test_tdr_study_computes_sine_energies_once(monkeypatch):
    # every sine moment on one (K, J*) shares one read-only energy array
    calls = []
    sq_sums = noise.mode_cell_sq_sums

    def counted(ks, j_star):
        calls.append(j_star)
        return sq_sums(ks, j_star)
    monkeypatch.setattr(noise, "mode_cell_sq_sums", counted)
    monkeypatch.setattr(solvers, "_sine_energies", functools.lru_cache(
        maxsize=1)(solvers._sine_energies.__wrapped__))   # an empty cache
    rep = cli.run_study({
        "study": "tdr", "horizon": "1.0", "seed": "0", "samples": "0",
        "n_star": "64", "j_star": "32", "K": "128", "dtau_levels": "2,3,4",
        "window": "2"})
    assert len(rep.rows) == 3
    assert len(calls) == 1
    assert not solvers._sine_energies(128, 32).flags.writeable


def test_exact_functionals_match_dense_maps():
    n, j, K, M = 32, 16, 64, 8
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(8)))
    # dense sine/FEM Gram oracle; the functionals use the alias pairing
    gram = fem.sine_hat_inner_matrix(K, eig.system.mesh) @ eig.vectors
    bsq = noise.mode_cell_sq_sums(np.arange(1, K + 1), j)
    for m in (3, M):
        u = solvers.map_regularized(n, j, 1.0, K, m / M)
        s = solvers.map_cn_spectral(n, j, 1.0, K, M, m)
        h = solvers.map_cn_fem(n, j, 1.0, eig, M, m)
        gap = u.time.dense() - s.time.dense()
        tdr = math.sqrt(float(((gap**2).sum(1) * bsq).sum()) * n * j)
        sdr = _dense_rms(s, h, gram)
        tot = _dense_rms(u, h, gram)
        cases = [
            (errors.tdr_error_exact(m, M, n, j, K=K), tdr),
            (errors.sdr_error_exact(m, M, n, j, eig, K=K), sdr),
            (errors.total_error_exact(m, M, n, j, eig, K=K), tot),
        ]
        for closed, dense in cases:
            assert abs(closed - dense) <= 1e-12 * dense


def test_pair_error_zero_on_itself_and_raises_on_inconsistent_moments(
        monkeypatch):
    n = j = 16
    K, M = 32, 8
    s = solvers.map_cn_spectral(n, j, 1.0, K, M, M)
    assert errors.pair_error(s, s) == 0.0
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(16)))
    h = solvers.map_cn_fem(n, j, 1.0, eig, M, M)
    assert errors.pair_error(s, h) > 0.0
    pairing = solvers.spectral_fem_gram

    def doubled(K, eigen):
        rows, g = pairing(K, eigen)
        return rows, 2.0 * g
    monkeypatch.setattr(solvers, "spectral_fem_gram", doubled)
    with pytest.raises(RuntimeError):
        errors.pair_error(s, h)


def test_mc_error_unbiased_on_known_distribution():
    rng_mean, se = errors.mc_error(
        lambda seeds: [float(np.random.default_rng(seed).normal() ** 2)
                       for seed in seeds], 2000)
    assert abs(rng_mean - 1.0) < 3.5 * se


def test_mc_error_vector_matches_scalar_per_column():
    def draws(seed):
        x = np.random.default_rng(seed).normal(size=3)
        return [float(x @ x), float(x[0] ** 2), 1e6 * float(x[1])]
    means, ses = errors.mc_error(lambda seeds: list(map(draws, seeds)), 37,
                                 base_seed=4)
    for c in range(3):
        assert (means[c], ses[c]) == errors.mc_error(
            lambda seeds: [draws(seed)[c] for seed in seeds], 37, base_seed=4)


@pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** 700])
def test_mc_error_scales_by_a_power_of_two_exactly(scale):
    # unscaled, the squared deviations of samples near 1e-301 underflow
    # (a stderr of 0) and those of samples near 1e200 overflow
    draws = np.random.default_rng(4).random(9)
    mean, se = errors.mc_error(lambda seeds: draws, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = errors.mc_error(lambda seeds: scale * draws, 9)
    assert se > 0.0 and got == (scale * mean, scale * se)


def test_mc_error_needs_samples():
    with pytest.raises(ValueError):
        errors.mc_error(lambda seeds: [1.0] * len(seeds), 1)


def test_mc_error_calls_pair_fn_once_with_every_seed():
    calls = []

    def pair_fn(seeds):
        calls.append(seeds)
        return [float(s % 7) for s in seeds]
    errors.mc_error(pair_fn, 5, base_seed=9)
    assert calls == [[errors.sample_seed(9, i) for i in range(5)]]


@pytest.mark.parametrize("pair_fn", [
    lambda seeds: [1.0] * (len(seeds) - 1),
    lambda seeds: [[1.0, 2.0]] * (len(seeds) + 1),
    lambda seeds: 1.0], ids=["short", "long", "scalar"])
def test_mc_error_needs_one_result_per_seed(pair_fn):
    with pytest.raises(ValueError, match="one result per seed"):
        errors.mc_error(pair_fn, 4)


def test_fit_rate_recovers_slope():
    steps = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = 3.0 * steps**0.5
    slope, intercept, resid = errors.fit_rate(steps, errs)
    assert abs(slope - 0.5) < 1e-12
    assert abs(math.exp(intercept) - 3.0) < 1e-12
    assert resid < 1e-12


def test_fit_rate_window_uses_finest():
    steps = [0.4, 0.2, 0.1, 0.05, 0.025]
    errs = [10.0, 1.0, 0.5 ** 0.5 * 1.0, 0.5, 0.5 ** 1.5]
    slope, _, _ = errors.fit_rate(steps, errs, window=4)
    assert abs(slope - 0.5) < 1e-12


def test_fit_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        errors.fit_rate([0.1, -0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        errors.fit_rate([0.1, 0.2], [0.0, 2.0])
    with pytest.raises(ValueError):
        errors.fit_rate([0.1], [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rate_rejects_a_non_finite_point(bad):
    # nan passes a test of <= 0; a nan error must not give a slope
    for steps, errs in (([0.1, 0.2, bad], [1.0, 2.0, 3.0]),
                        ([0.1, 0.2, 0.4], [1.0, bad, 3.0])):
        with pytest.raises(ValueError, match="positive and finite"):
            errors.fit_rate(steps, errs)
    # also outside the fitted window
    with pytest.raises(ValueError, match="positive and finite"):
        errors.fit_rate([0.1, 0.2, 0.4], [1.0, 2.0, bad], window=2)


def test_fit_rate_rejects_a_repeated_step_in_its_window():
    with pytest.raises(ValueError, match="repeats a step"):
        errors.fit_rate([0.25, 0.25], [0.5, 0.59])
    with pytest.raises(ValueError, match="repeats a step"):
        errors.fit_rate([0.4, 0.1, 0.2, 0.1], [1.0, 0.5, 0.7, 0.5], window=3)
    # a repeat among the coarse levels outside the window is not fitted
    slope, _, _ = errors.fit_rate([0.4, 0.4, 0.2, 0.1], [4.0, 4.0, 0.2, 0.1],
                                  window=2)
    assert abs(slope - 1.0) < 1e-12


def test_report_csv_layout():
    rep = errors.ErrorReport("tdr")
    rep.add_row(0, 0.5, 0.25, 0.125, math.nan, 16, 0.125)
    rep.fit("dtau", window=2) if len(rep.rows) > 1 else None
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ("study,level,dt,dx,dtau,h,K,"
                        "error_exact,error_mc,stderr")
    assert lines[1].startswith("tdr,0,0.5,0.25,0.125,nan,16,0.125,nan,nan")
    assert lines[-1].startswith("slope,")
    assert not any(l.endswith(",") for l in lines)
