import math

import numpy as np
import pytest

from stochheat import cli, errors, fem, noise, solvers


def test_modeling_error_zero_at_start():
    assert errors.modeling_error_exact(0.0, 4, 4, 10) == 0.0


def test_modeling_error_against_quadrature_oracle():
    a = errors.modeling_error_exact(1.0, 2, 2, 60, include_tail=False)
    b = errors.modeling_error_quadrature(1.0, 2, 2, 60)
    assert abs(a - b) <= 1e-8 * b


def test_modeling_error_quadrature_raises_on_negative_sum(monkeypatch):
    # captured energy above the kernel energy is not clamped to 0
    integrals = errors._cell_time_integrals

    def inflated(*args, **kwargs):
        s1, s2 = integrals(*args, **kwargs)
        return 10.0 * s1, s2
    monkeypatch.setattr(errors, "_cell_time_integrals", inflated)
    with pytest.raises(RuntimeError, match="beyond rounding"):
        errors.modeling_error_quadrature(1.0, 2, 2, 4, nsub=8)


def test_modeling_error_tail_tiny_for_large_K():
    lo = errors.modeling_error_exact(1.0, 8, 8, 2000, include_tail=False)
    hi = errors.modeling_error_exact(1.0, 8, 8, 2000, include_tail=True)
    assert hi >= lo
    # tail of sum 1/(2 lam^2) beyond K=2000 is about 2.5e-5 in Z^2
    assert hi - lo < 1e-4
    # and including the tail approximates a much larger truncation
    ref = errors.modeling_error_exact(1.0, 8, 8, 200000, include_tail=False)
    assert abs(hi - ref) < 1e-6


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

    mean, se = errors.mc_error(one, 500, base_seed=21)
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


def test_tdr_study_computes_sine_energies_once(monkeypatch):
    # every sine moment on one (K, J*) shares one read-only energy array
    calls = []
    sq_sums = noise.mode_cell_sq_sums

    def counted(ks, j_star):
        calls.append(j_star)
        return sq_sums(ks, j_star)
    monkeypatch.setattr(noise, "mode_cell_sq_sums", counted)
    solvers._sine_energies.cache_clear()
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
        lambda seed: float(np.random.default_rng(seed).normal() ** 2), 2000)
    assert abs(rng_mean - 1.0) < 3.5 * se


def test_mc_error_vector_matches_scalar_per_column():
    def draws(seed):
        x = np.random.default_rng(seed).normal(size=3)
        return [float(x @ x), float(x[0] ** 2), 1e6 * float(x[1])]
    means, ses = errors.mc_error(draws, 37, base_seed=4)
    for c in range(3):
        assert (means[c], ses[c]) == errors.mc_error(
            lambda seed: draws(seed)[c], 37, base_seed=4)


def test_mc_error_needs_samples():
    with pytest.raises(ValueError):
        errors.mc_error(lambda s: 1.0, 1)


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
