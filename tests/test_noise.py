
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stochheat import noise, quadrature, solvers
from stochheat.spectral import sin_pi_ratio


def test_sample_shape_and_determinism():
    g = noise.sample(16, 8, 1.0, seed=42)
    assert g.increments.shape == (16, 8)
    again = noise.sample(16, 8, 1.0, seed=42)
    assert np.array_equal(g.increments, again.increments)
    other = noise.sample(16, 8, 1.0, seed=43)
    assert not np.array_equal(g.increments, other.increments)


def test_sample_scales_the_philox_draw():
    # the draw is scaled in place: sd * standard_normal bit for bit
    n_star, j_star, horizon, seed = 48, 20, 0.7, 123
    rng = np.random.Generator(np.random.Philox(key=seed))
    sd = math.sqrt((horizon / n_star) * (1.0 / j_star))
    expect = sd * rng.standard_normal((n_star, j_star))
    got = noise.sample(n_star, j_star, horizon, seed).increments
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("rows", [1, 3, 7, 48, 100])
def test_sample_blocks_continue_the_stream(rows):
    # chunked draws continue the one Philox stream: the blocks stacked
    # are sample's matrix bit for bit, the last block the rows left
    n_star, j_star, horizon, seed = 48, 20, 0.7, 123
    blocks = list(noise.sample_blocks(n_star, j_star, horizon, seed, rows))
    assert [len(b) for b in blocks] == [
        min(rows, n_star - lo) for lo in range(0, n_star, rows)]
    assert np.vstack(blocks).tobytes() == noise.sample(
        n_star, j_star, horizon, seed).increments.tobytes()


def test_increment_variance():
    # each cell increment is N(0, dt*dx); check the pooled variance
    g = noise.sample(400, 250, 1.0, seed=1)
    var = g.increments.var()
    expect = g.dt * g.dx
    assert abs(var - expect) < 0.05 * expect


def test_coarsen_sums_blocks():
    g = noise.sample(8, 8, 1.0, seed=5)
    c = noise.coarsen(g, time_factor=2, space_factor=4)
    assert (c.n_star, c.j_star) == (4, 2)
    manual = g.increments.reshape(4, 2, 2, 4).sum(axis=(1, 3))
    assert np.array_equal(c.increments, manual)


def test_coarsen_rejects_nondivisible():
    g = noise.sample(8, 8, 1.0, seed=5)
    with pytest.raises(ValueError):
        noise.coarsen(g, time_factor=3)


def test_mode_cell_integrals_match_quadrature():
    K, J = 7, 4
    B = noise.mode_cell_integrals(K, J)
    for k in (1, 3, 7):
        for j in range(J):
            val = quadrature.composite_gauss(
                lambda x: math.sqrt(2.0) * np.sin(k * math.pi * x),
                j / J, (j + 1) / J, nsub=64)
            assert abs(B[k - 1, j] - val) < 1e-13


def test_mode_cell_integrals_match_mpmath():
    # 30-digit cosine differences at J* = 1024, rows past 4J* (the period
    # of the product form in k) included: k = 5120 is an odd multiple of
    # J*, k = 6144 a multiple of 2J* whose row is 0.  Every row is held to
    # its envelope |b_kj| <= 2 sqrt2/lam_k; a float cosine difference
    # loses digits as k grows (6.5e-13 of the envelope at k = 4095).
    mpmath = pytest.importorskip("mpmath")
    J = 1024
    B = noise.mode_cell_integrals(6144, J)
    for k in (1, 4095, 4097, 5120, 6144):
        with mpmath.workdps(30):
            lam = k * mpmath.pi
            c = [mpmath.cos(lam * j / J) for j in range(J + 1)]
            exact = np.array([float(mpmath.sqrt(2) * (c[j] - c[j + 1]) / lam)
                              for j in range(J)])
        err = np.abs(B[k - 1] - exact).max()
        assert err <= 1e-14 * 2.0 * math.sqrt(2.0) / (k * math.pi), k
        if k == 1:
            # cos(pi/1024) - cos(0) cancels; the product form does not
            assert abs(B[0, 0] - exact[0]) <= 1e-14 * abs(exact[0])


def test_mode_cell_integrals_rows_near_multiples_of_pi_match_mpmath():
    # a_k = (2 sqrt2/lam_k) sin(k pi/(2J*)) is small for k near a multiple
    # of 2J*; the integer-folded sine keeps such rows accurate relative to
    # a_k, not only to the envelope 2 sqrt2/lam_k.  k = 6144 (3 half
    # periods) is 0 on every cell
    mpmath = pytest.importorskip("mpmath")
    J = 1024
    B = noise.mode_cell_integrals(6144, J)
    assert not B[6143].any()
    for k in (2047, 4095, 4097, 5120):
        with mpmath.workdps(30):
            amp = (2 * mpmath.sqrt(2) / (k * mpmath.pi)
                   * mpmath.sin(k * mpmath.pi / (2 * J)))
            exact = np.array([float(amp * mpmath.sin(k * mpmath.pi
                                                     * (2 * j - 1) / (2 * J)))
                              for j in range(1, J + 1)])
        assert np.abs(B[k - 1] - exact).max() <= 1e-15 * abs(float(amp)), k


@pytest.mark.parametrize("J", [1, 3, 8, 1024])
@pytest.mark.parametrize("modes", [
    lambda J: 1, lambda J: max(J - 1, 1), lambda J: J, lambda J: 2 * J,
    lambda J: 4 * J + 3, lambda J: 6144],
    ids=["1", "J-1", "J", "2J", "4J+3", "6144"])
def test_sine_cell_fold_rebuilds_cell_integrals(J, modes):
    K = modes(J)
    alias, c, S = noise.sine_cell_fold(K, J)
    assert S.shape == (min(K, J), J)
    assert not any(v.flags.writeable for v in (alias, c, S))
    assert np.array_equal(c[:, None] * S[alias],
                          noise.mode_cell_integrals(K, J))


@pytest.mark.parametrize("J", [1, 3, 8, 1024])
@pytest.mark.parametrize("modes", [
    lambda J: 1, lambda J: 4 * J - 1, lambda J: 3 * 4 * J + 5],
    ids=["1", "4J-1", "3*4J+5"])
def test_fold_rows_tables_match_per_mode_form_bit_for_bit(J, modes):
    # the residue tables mod 4J gather the bits of the per-mode form
    K = modes(J)
    ks = np.arange(1, K + 1)
    quot, s = np.divmod(ks, 2 * J)
    alias = np.where(s == 0, J, np.minimum(s, 2 * J - s)) - 1
    c = 2.0 * math.sqrt(2.0) * sin_pi_ratio(ks, 2 * J) / (ks * math.pi)
    c[quot % 2 == 1] *= -1.0
    got_alias, got_c = noise.fold_rows(K, J)
    assert got_alias.tobytes() == alias.tobytes()
    assert got_c.tobytes() == c.tobytes()


def test_sample_holds_one_grid():
    # sample hands its fresh array to the grid: no second copy
    tracemalloc.start()
    try:
        g = noise.sample(1024, 1024, 1.0, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * g.increments.nbytes
    assert not g.increments.flags.writeable
    assert not noise.coarsen(g, 2, 4).increments.flags.writeable


def test_grid_copies_the_callers_array():
    inc = np.arange(6.0).reshape(2, 3)
    g = noise.NoiseGrid(2, 3, 1.0, 0, inc)
    assert inc.flags.writeable and not g.increments.flags.writeable
    assert not np.shares_memory(inc, g.increments)
    inc[0, 0] = 7.0
    assert g.increments[0, 0] == 0.0


def test_mode_cell_sq_sums_closed_form():
    J = 8
    B = noise.mode_cell_integrals(3 * J, J)
    direct = (B**2).sum(axis=1)
    closed = noise.mode_cell_sq_sums(np.arange(1, 3 * J + 1), J)
    assert np.allclose(direct, closed, rtol=1e-13, atol=1e-18)
    # k a multiple of 2J integrates to zero on every cell
    assert closed[2 * J - 1] == 0.0
    # k an odd multiple of J doubles the generic value
    assert closed[J - 1] > 0.0


def test_time_overlap_telescopes():
    # sum_n I_{k,n}(t) = (1 - e^{-lam^2 t}) / lam^2
    k, t, N = 3, 0.73, 16
    lam2 = (k * math.pi) ** 2
    vals = noise.time_overlaps(np.array([k]), t, N)
    assert abs(vals.sum() - (1.0 - math.exp(-lam2 * t)) / lam2) < 1e-18


def test_time_overlap_sq_sum_matches_direct(overlap_sq_sum_mp):
    # the closed-form time Gram of a profile at a t inside a cell against
    # the dense overlaps and a 30-digit sum
    ks = np.array([1, 5, 40])
    t, N = 0.61, 32
    closed = solvers.time_gram(*[solvers.OverlapProfile(ks, t, N, 1.0)] * 2)
    direct = (noise.time_overlaps(ks, t, N) ** 2).sum(axis=1)
    assert np.allclose(direct, closed, rtol=1e-12, atol=1e-30)
    ref = np.array([overlap_sq_sum_mp(k, t, N, 1.0) for k in ks])
    assert np.all(np.abs(closed - ref) <= 1e-14 * ref)


def test_time_overlaps_keep_high_modes_on_non_dyadic_grids(
        overlap_sq_sum_mp):
    # dt = 1/3 and 2/5 are not floats: offsets from float cell ends
    # n dt + dt miss t by an ulp, and t = 3 (2/5) gives t/dt = 3 + 4e-16;
    # either costs mode k a relative error of about lam^2 t eps
    ks = np.array([194, 1000])
    for t, exact, N, horizon in ((2.0, 2, 6, 2.0),
                                 (3 * (2.0 / 5), Fraction(6, 5), 5, 2.0)):
        ref = np.array([overlap_sq_sum_mp(k, exact, N, horizon)
                        for k in ks])
        direct = (noise.time_overlaps(ks, t, N, horizon) ** 2).sum(axis=1)
        closed = solvers.time_gram(
            *[solvers.OverlapProfile(ks, t, N, horizon)] * 2)
        for got in (direct, closed):
            assert np.all(np.abs(got - ref) <= 1e-14 * ref)


def test_project_pi_reproduces_cell_averages():
    g = lambda t, x: np.sin(2.0 * t) * (x - x**2)
    P = noise.project_pi(g, 4, 4)
    # compare one cell against 2d quadrature
    ts, wt = quadrature.gauss_points(0.25, 0.5, nsub=16)
    xs, wx = quadrature.gauss_points(0.5, 0.75, nsub=16)
    avg = float(wt @ g(ts[:, None], xs[None, :]) @ wx) / (0.25 * 0.25)
    assert abs(P[1, 2] - avg) < 1e-12


def test_project_pi_is_contraction():
    # averaging cannot increase the L2 norm of the step function
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = rng.normal(size=(8, 8))
        fine = noise.NoiseGrid(8, 8, 1.0, 0, c * (1.0 / 64.0))
        coarse = noise.coarsen(fine, 2, 2)
        norm2_fine = (fine.increments**2).sum() / (fine.dt * fine.dx)
        norm2_coarse = (coarse.increments**2).sum() / (coarse.dt * coarse.dx)
        assert norm2_coarse <= norm2_fine + 1e-12


def test_itq_isometry_monte_carlo():
    # E || W ||_{L2(strip)}^2 = total cells * cell variance / area = T * |D|
    total = 0.0
    n = 300
    for s in range(n):
        g = noise.sample(8, 8, 1.0, seed=1000 + s)
        total += (g.increments**2).sum() / (g.dt * g.dx)
    mean = total / n
    assert abs(mean - 64.0) < 3.0 * 64.0 * math.sqrt(2.0 / 64.0 / n)


def test_grid_immutable():
    g = noise.sample(2, 2, 1.0, seed=3)
    with pytest.raises(AttributeError):
        g.seed = 5
