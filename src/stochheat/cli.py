"""Command line front end: sample paths, convergence studies, selftest.

Configuration is a flat key = value file; any key can be overridden on
the command line with --set.  Study output is CSV with one row per
refinement level and a trailing fitted-slope line.
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import deterministic, errors, fem, noise, solvers
from .spectral import SpectralField

__all__ = ["main", "parse_config_text", "run_study"]


class ConfigError(Exception):
    pass


# sample-path shares the horizon and seed; sdr and total share one grid
_RUN = {"horizon": "1.0", "seed": "0"}
_FEM_LEVELS = {"n_star": "4096", "j_star": "1024", "K": "4096", "M": "4096",
               "h_levels": "3,4,5,6,7", "window": "4"}
_DEFAULTS = {study: dict(study=study, **_RUN, samples="0", **keys)
             for study, keys in (
    ("model-space", {"n_star": str(2 ** 16), "K": "8192",
                     "dx_levels": "3,4,5,6,7,8", "window": "6"}),
    ("model-time", {"j_star": str(2 ** 10), "K": "8192",
                    "dt_levels": "4,5,6,7,8,9,10,11,12", "window": "4"}),
    ("tdr", {"n_star": "1024", "j_star": "1024", "K": "4096",
             "dtau_levels": "4,5,6,7,8,9", "window": "4"}),
    ("sdr", _FEM_LEVELS),
    ("total", _FEM_LEVELS),
    ("deterministic-cn", {"axis": "time", "M": "4096",
                          "dtau_levels": "4,5,6,7,8,9,10",
                          "h_levels": "3,4,5,6,7", "window": "4"}),
)}

_SAMPLE_PATH_DEFAULTS = dict(_RUN, n_star="256", j_star="256", M="256",
                             mesh="64")


def parse_config_text(text):
    """Flat key = value lines; '#' starts a comment; later keys win."""
    cfg = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % ln)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError("line %d: empty key or value" % ln)
        cfg[key] = value
    return cfg


def _merged(path, overrides):
    cfg = {}
    if path:
        try:
            with open(path) as fh:
                cfg.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(str(exc))
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError("--set expects key=value, got %r" % item)
        key, _, value = item.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _get_int(cfg, key):
    try:
        return int(cfg[key])
    except (KeyError, ValueError):
        raise ConfigError("bad or missing integer key %r" % key)


def _at_least(cfg, key, lo):
    value = _get_int(cfg, key)
    if value < lo:
        raise ConfigError("%s must be >= %d, got %d" % (key, lo, value))
    return value


def _horizon(cfg):
    try:
        horizon = float(cfg["horizon"])
    except (KeyError, ValueError):
        raise ConfigError("bad or missing float key 'horizon'")
    if not 0.0 < horizon < math.inf:
        raise ConfigError("horizon must be positive and finite")
    return horizon


def _levels(cfg, key):
    try:
        vals = [int(tok) for tok in cfg[key].split(",") if tok.strip()]
    except (KeyError, ValueError):
        raise ConfigError("bad or missing level list %r" % key)
    if len(vals) < 2 or any(v < 1 for v in vals):
        raise ConfigError("level list %r must hold at least two positive "
                          "exponents" % key)
    if len(set(vals)) < len(vals):
        raise ConfigError("level list %r repeats an exponent" % key)
    return vals


def _mc_rms(levels, samples, seed):
    """Monte Carlo RMS of X - Y and its standard error, one per level.

    Each ``(map_a, map_b, dist)`` of ``levels`` is a level, ``dist`` its
    ``solvers.squared_distance``.  One ``solvers.JointSampler`` over the
    distinct maps draws the coefficients of every level from the same
    standard normals, one sample per seed, in the seed order of
    ``errors.mc_error``.  The pass runs serially, with BLAS held to one
    thread (``blas.one_thread``), so its bits are the same on every host.
    """
    from . import blas   # imported here, so that start-up does not load it

    maps = list({id(m): m for lv in levels for m in lv[:2]}.values())
    at = {id(m): i for i, m in enumerate(maps)}

    def sampled(seeds):
        out = []
        for s in seeds:
            coef = sampler.coefficients(sampler.draw(s))
            out.append([dist(coef[at[id(a)]], coef[at[id(b)]])
                        for a, b, dist in levels])
        return out

    with blas.one_thread():
        sampler = solvers.JointSampler(maps)
        means, ses = errors.mc_error(sampled, samples, seed)
    return [(math.sqrt(mean),
             se / (2.0 * math.sqrt(mean)) if mean > 0 else 0.0)
            for mean, se in zip(means, ses)]


def run_study(cfg):
    """Run the configured convergence study; returns an ErrorReport."""
    study = cfg.get("study")
    if study not in _DEFAULTS:
        raise ConfigError("unknown study %r" % study)
    horizon = _horizon(cfg)
    samples = _get_int(cfg, "samples")
    mc = study in ("tdr", "sdr", "total")   # studies with MC columns
    if samples < 0 or samples == 1 or samples and not mc:
        raise ConfigError("samples must be 0, or >= 2 in a study with Monte "
                          "Carlo columns; %s got %d" % (study, samples))
    seed = _get_int(cfg, "seed")
    window = _at_least(cfg, "window", 2)
    rep = errors.ErrorReport(study)

    if study in ("model-space", "model-time"):
        # refine J* at a fixed n* (model-space) or n* at a fixed J*
        space = study == "model-space"
        fixed = _at_least(cfg, "n_star" if space else "j_star", 1)
        K = _at_least(cfg, "K", 1)
        key = "dx" if space else "dt"
        grids = [(fixed, 2 ** e) if space else (2 ** e, fixed)
                 for e in _levels(cfg, key + "_levels")]
        errs = errors.modeling_errors(horizon, grids, K, horizon)
        for lvl, ((n_star, j_star), err) in enumerate(zip(grids, errs)):
            rep.add_row(lvl, horizon / n_star, 1.0 / j_star, math.nan,
                        math.nan, K, err)
        rep.fit(key, window)

    elif study in ("tdr", "sdr", "total"):
        n_star = _at_least(cfg, "n_star", 1)
        j_star = _at_least(cfg, "j_star", 1)
        K = _at_least(cfg, "K", 1)
        key = "dtau" if study == "tdr" else "h"
        if key == "h":
            M = _at_least(cfg, "M", 1)
        # map_a does not depend on the level: build it once
        if study == "sdr":
            map_a = solvers.map_cn_spectral(n_star, j_star, horizon, K, M, M)
        else:
            t = horizon if study == "tdr" else M * (horizon / M)
            map_a = solvers.map_regularized(n_star, j_star, horizon, K, t)
        rows, levels = [], []
        for lvl, e in enumerate(_levels(cfg, key + "_levels")):
            if study == "tdr":
                M, h = 2 ** e, math.nan
                map_b = solvers.map_cn_spectral(n_star, j_star, horizon, K,
                                                M, M)
            else:
                mesh = fem.Mesh(2 ** e)
                h = mesh.h
                eigen = fem.generalized_eigen(fem.assemble(mesh))
                map_b = solvers.map_cn_fem(n_star, j_star, horizon, eigen,
                                           M, M)
            rows.append((lvl, horizon / n_star, 1.0 / j_star, horizon / M, h,
                         K, errors.pair_error(map_a, map_b)))
            if samples:
                levels.append((map_a, map_b,
                               solvers.squared_distance(map_a, map_b)))
        mc = (_mc_rms(levels, samples, seed) if samples
              else [(math.nan, math.nan)] * len(rows))
        for row, (err_mc, se) in zip(rows, mc):
            rep.add_row(*row, err_mc, se)
        rep.fit(key, window)

    else:  # deterministic-cn
        axis = cfg.get("axis", "time")
        v0 = SpectralField(np.array([1.0]))
        if axis == "time":
            for lvl, e in enumerate(_levels(cfg, "dtau_levels")):
                M = 2 ** e
                dtau = horizon / M
                num = deterministic.modified_cn_spectral(v0, M, dtau)
                ref = deterministic.exact_trajectory(v0, M, dtau)
                err = deterministic.l2t_error(num, ref, "endpoint")
                rep.add_row(lvl, math.nan, math.nan, dtau, math.nan, 1, err)
            rep.fit("dtau", window)
        elif axis == "space":
            M = _at_least(cfg, "M", 1)
            dtau = horizon / M
            ref = deterministic.modified_cn_spectral(v0, M, dtau)
            systems = [fem.assemble(fem.Mesh(2 ** e))
                       for e in _levels(cfg, "h_levels")]
            # the levels share M and dtau: one block-diagonal system steps
            # them all, each level with the bits of its own system
            states = deterministic.modified_cn_fem(
                np.concatenate([fem.l2_project(v0, s) for s in systems]),
                fem.FemSystem.stack(systems), M, dtau).states
            parts = np.split(states, np.cumsum(
                [s.mesh.nu for s in systems])[:-1], axis=1)
            for lvl, (system, part) in enumerate(zip(systems, parts)):
                num = deterministic.Trajectory(dtau, part, "nodal")
                err = deterministic.l2t_error(num, ref, "midpoint", system)
                rep.add_row(lvl, math.nan, math.nan, dtau, system.mesh.h,
                            1, err)
            rep.fit("h", window)
        else:
            raise ConfigError("axis must be 'time' or 'space'")

    return rep


def run_sample_path(cfg):
    """One CN finite element path; one CSV row per step, interior nodes."""
    n_star = _at_least(cfg, "n_star", 1)
    j_star = _at_least(cfg, "j_star", 1)
    M = _at_least(cfg, "M", 1)
    seed = _get_int(cfg, "seed")
    horizon = _horizon(cfg)
    mesh = fem.Mesh(_at_least(cfg, "mesh", 2))
    step = max(1, _CSV_BLOCK // mesh.nu)
    text = ""
    for states in solvers.cn_fem_path(n_star, j_star, horizon, seed,
                                      fem.assemble(mesh), M):
        for lo in range(0, len(states), step):
            # += grows the one string in place (CPython resizes a str
            # that nothing else references); "".join over the pieces,
            # or StringIO.getvalue(), would hold a second full copy
            text += _csv_rows(states[lo:lo + step])
    return text


# values per _csv_rows call (whole rows, at least one): its n x 48 byte
# template stays small beside the CSV
_CSV_BLOCK = 2 ** 11
# the fast path takes 10**-_FAST_EXP <= |v| < 10**_FAST_EXP: there the
# Veltkamp splits of |v| and of 10**(16 - E) cannot overflow and the lo
# parts of the powers of ten stay normal
_FAST_EXP = 280


@functools.cache
def _csv_tables():
    """The tables of ``_csv_rows``, built on first use.

    One value is laid out in 48 bytes: 2 unused, "-", "0.000" (fixed
    notation, E < 0), digit k of 17 at byte 8 + 2k with a point after
    it, "e+XXX" and the separator.  ``pow10[:, k + 300]``, |k| <= 300:
    10**k as a double-double (hi, lo) from integer arithmetic, the
    Veltkamp halves of hi, and the smallest double >= 10**k.
    ``quad[g]``: the 8 bytes of four digits g < 10**4 and their points
    (digits 4j..4j + 3 fill bytes 8 + 8j..15 + 8j); ``last[j, g]``: the
    digits up to the last nonzero one of g as group j, or negative for
    g = 0 (group 4 is digit 16 alone).
    ``tail[E + 300] | ones[digit 16]``: bytes 40..47.  ``keep``: the byte
    masks of %g's layout; row ``first[E + 300] + digits`` (+ 425 if
    negative) keeps E with that many significant digits.
    """
    pow10 = []
    for k in range(-300, 301):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        hi = num / den                   # int / int rounds correctly
        p, q = hi.as_integer_ratio()
        lo = (num * q - p * den) / (den * q)
        c = 134217729.0 * hi
        half = c - (c - hi)
        pow10.append((hi, lo, half, hi - half,
                      math.nextafter(hi, math.inf) if lo > 0 else hi))
    g = np.arange(10 ** 4)
    quad = np.full((g.size, 8), ord("."), np.uint8)
    quad[:, ::2] = g[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    last = np.select([g % 10 > 0, g % 100 > 0, g % 1000 > 0, g > 0],
                     [4, 3, 2, 1], -32) + np.arange(0, 20, 4)[:, None]
    last[4, 1:] = 17                 # digit 16 alone
    e = np.arange(-300, 301)
    tail = np.zeros((e.size, 8), np.uint8)
    tail[:, 1:4] = np.frombuffer(b".e+", np.uint8)
    tail[e < 0, 3] = ord("-")
    tail[:, 4:7] = np.abs(e)[:, None] // [100, 10, 1] % 10 + ord("0")
    tail[:, 7] = ord(",")
    ones = np.zeros((10, 8), np.uint8)
    ones[:, 0] = np.arange(10) + ord("0")
    # one representative E per class: 0 for E <= -100, 1 up to -5, 2..22
    # for -4..16 (fixed notation), 23 up to 99, 24 from 100
    neg, E, sig = (x.ravel() for x in np.meshgrid(
        [False, True], [-100, -5, *range(-4, 17), 17, 100],
        np.arange(1, 18), indexing="ij"))
    fixed = (E >= -4) & (E < 17)
    shown = np.where(fixed, np.maximum(sig, E + 1), sig)[:, None]
    k = np.arange(17)
    keep = np.zeros((E.size, 48), bool)
    keep[:, 2] = neg
    keep[:, 3:8] = fixed[:, None] & (E[:, None] <= [-1, -1, -2, -3, -4])
    keep[:, 8:42:2] = k < shown
    keep[:, 9:42:2] = (k == np.where(fixed, E, 0)[:, None]) & (k < shown - 1)
    keep[:, 42:47] = ~fixed[:, None]
    keep[:, 44] &= np.abs(E) >= 100
    keep[:, 47] = True
    first = 17 * (np.clip(e, -5, 17) + 6 - (e <= -100) + (e >= 100)) - 1
    return (np.array(pow10).T.copy(), quad.view(np.uint64)[:, 0],
            last.astype(np.int8), tail.view(np.uint64)[:, 0],
            ones.view(np.uint64)[:, 0], first,
            (keep * np.uint8(255)).view(np.uint64))


def _csv_rows(states):
    """The rows of ``states`` as "%.17g" CSV lines, byte for byte.

    D = round(|v| 10**(16 - E)) comes from Dekker's error-free product of
    |v| with 10**(16 - E) as a double-double; its rounding is certain
    unless the product lies within 2**-40 of a half (the error is below
    1e-14).  Those values, the non-finite ones and those outside the
    _FAST_EXP window take '%.17g' % v one at a time; +-0 is "0" or "-0".
    """
    pow10, quad, last, tail, ones, first, keep = _csv_tables()
    v = np.ravel(states)
    a = np.abs(v)
    fast = (a >= 10.0 ** -_FAST_EXP) & (a < 10.0 ** _FAST_EXP)
    a[~fast] = 1.0                   # the others go through as 1.0
    # E = floor(log10 a): log10 may be one off next to a power of ten
    E = np.floor(np.log10(a)).astype(np.intp)
    E += a >= pow10[4].take(E + 301)
    E -= a < pow10[4].take(E + 300)
    hi, lo, hh, hl = (col.take(316 - E) for col in pow10[:4])  # 10**(16-E)
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    p = a * hi                       # an integer: p > 2**53
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    n = np.rint(r)
    fast &= np.abs(r - n) < 0.5 - 2.0 ** -40
    D = p.astype(np.int64) + n.astype(np.int64)
    up = D == 10 ** 17               # rounds up to the next power of ten
    D[up] = 10 ** 16
    E += up
    hi9 = (D // 10 ** 9).astype(np.uint32)
    lo9 = (D % 10 ** 9).astype(np.uint32)
    groups = (hi9 // 10 ** 4, hi9 % 10 ** 4, lo9 // 10 ** 5,
              lo9 // 10 % 10 ** 4)
    d16 = lo9 % 10
    sig = np.maximum.reduce(
        [last[j].take(x) for j, x in enumerate(groups + (d16,))])
    T = np.empty((v.size, 6), np.uint64)
    T[:, 0] = np.frombuffer(b"\0\0-0.000", np.uint64)[0]
    for j, x in enumerate(groups):
        T[:, j + 1] = quad.take(x)
    T[:, 5] = tail.take(E + 300) | ones.take(d16)
    T[v == 0, 1] = quad[0]           # +-0: the layout of 1.0, digit 0
    T &= keep.take(first.take(E + 300) + sig + 425 * np.signbit(v), axis=0)
    B = T.view(np.uint8)
    B[states.shape[-1] - 1::states.shape[-1], 47] = ord("\n")
    for i in np.flatnonzero(~fast & (v != 0)):
        text = _fallback(v[i])
        B[i, :47] = 0
        B[i, :len(text)] = np.frombuffer(text, np.uint8)
    return B.tobytes().translate(None, b"\0").decode()   # drop the 0 bytes


def _fallback(x):
    """'%.17g' % x as bytes, for a value the fast path does not take."""
    return ("%.17g" % x).encode()


def _selftest_checks():
    yield "noise determinism", lambda: np.array_equal(
        noise.sample(32, 16, 1.0, 7).increments,
        noise.sample(32, 16, 1.0, 7).increments)

    def coarsen_ok():
        g = noise.sample(32, 16, 1.0, 3)
        c = noise.coarsen(g, 4, 2)
        blocks = g.increments.reshape(8, 4, 8, 2).sum(axis=(1, 3))
        return np.allclose(c.increments, blocks, rtol=0, atol=0)
    yield "noise coarsening", coarsen_ok

    def fold_ok():
        # the cell integrals of e_k from the antiderivative of sqrt2 sin
        K, j_star = 3 * 8 + 5, 8
        k = np.arange(1, K + 1)[:, None] * math.pi
        x = np.arange(j_star + 1) / j_star
        dense = math.sqrt(2.0) * -np.diff(np.cos(k * x), axis=1) / k
        alias, c, S = noise.sine_cell_fold(K, j_star)
        return np.allclose(c[:, None] * S[alias], dense, rtol=0, atol=1e-14)
    yield "folded sine cell factor matches dense cell integrals", fold_ok

    def duhamel_ok():
        g = noise.sample(16, 8, 1.0, 11)
        K, M = 12, 8
        traj = solvers.cn_time_discrete(g, K, M)
        m = solvers.map_cn_spectral(16, 8, 1.0, K, M, M)
        return np.allclose(traj.states[-1], m.reconstruct(g),
                           rtol=1e-12, atol=1e-13)
    yield "spectral Duhamel form", duhamel_ok

    def fem_duhamel_ok():
        g = noise.sample(16, 8, 1.0, 5)
        system = fem.assemble(fem.Mesh(8))
        eigen = fem.generalized_eigen(system)
        M = 8
        traj = solvers.cn_fem_spde(g, system, M)
        m = solvers.map_cn_fem(16, 8, 1.0, eigen, M, M)
        nodal = eigen.vectors @ m.reconstruct(g)
        return np.allclose(traj.states[-1], nodal, rtol=1e-9, atol=1e-11)
    yield "fem Duhamel form", fem_duhamel_ok

    def elliptic_ok():
        system = fem.assemble(fem.Mesh(16))
        v = fem.elliptic_solve_discrete(lambda x: np.ones_like(x), system)
        x = system.mesh.nodes[1:-1]
        return np.allclose(v, (x * x - x) / 2.0, atol=1e-10)
    yield "discrete elliptic inverse", elliptic_ok

    def modeling_ok():
        a = errors.modeling_error_exact(1.0, 2, 2, 40, include_tail=False)
        b = errors.modeling_error_quadrature(1.0, 2, 2, 40)
        return abs(a - b) <= 1e-8 * b
    yield "modeling error closed form", modeling_ok

    def time_gram_ok():
        K, M, n_star = 12, 8, 32
        ks = np.arange(1, K + 1)
        lam2 = (ks * math.pi) ** 2
        over = solvers.OverlapProfile(ks, 1.0, n_star, 1.0)
        cn = solvers.PropagatorProfile(lam2, M, 1.0 / M, n_star, 1.0)
        cn2 = solvers.PropagatorProfile(lam2, M // 2, 2.0 / M, n_star, 1.0)
        cn3 = solvers.PropagatorProfile(lam2, 16, 0.3 / 16, 24, 0.3)  # 3/2
        rev, own = np.arange(K)[::-1], slice(None)
        for a, b, r in ((over, over, own), (over, cn, own), (cn, cn, own),
                        (over, cn, rev), (cn, cn, rev), (cn, over, rev),
                        (cn, cn2, own), (cn3, cn3, rev)):
            ref = (a.dense() * b.dense()[r]).sum(1)
            err = np.abs(solvers.time_gram(a, b, r) - ref).max()
            if not err <= 1e-12 * np.abs(ref).max():
                return False
        return True
    yield "closed-form time Gram matches dense", time_gram_ok


def run_selftest():
    failed = 0
    for name, check in _selftest_checks():
        try:
            ok = bool(check())
            note = ""
        except Exception as exc:
            ok = False
            note = " (%s)" % exc
        if ok:
            print("ok %s" % name)
        else:
            failed += 1
            print("FAIL %s%s" % (name, note))
    if failed:
        print("%d check(s) failed" % failed)
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="stochheat",
                     description="stochastic heat equation laboratory")
    sub = parser.add_subparsers(dest="command")
    for name in ("sample-path", "study"):
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--set", action="append", dest="overrides",
                       metavar="KEY=VALUE")
        if name == "study":
            p.add_argument("--samples", type=int)
    sub.add_parser("selftest")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("missing subcommand")
        if args.command == "selftest":
            return run_selftest()
        given = _merged(args.config, args.overrides)
        if args.command == "sample-path":
            cfg, known = dict(_SAMPLE_PATH_DEFAULTS), [_SAMPLE_PATH_DEFAULTS]
        else:
            study = given.get("study", "model-space")
            if study not in _DEFAULTS:
                raise ConfigError("unknown study %r" % study)
            cfg, known = dict(_DEFAULTS[study]), _DEFAULTS.values()
        unknown = ", ".join(sorted(set(given).difference(*known)))
        if unknown:   # a key no default holds, likely a misspelling
            raise ConfigError("unknown config key(s) %s" % unknown)
        cfg.update(given)
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        if getattr(args, "samples", None) is not None:
            cfg["samples"] = str(args.samples)
        if args.out:   # fail before the run; "a" leaves a file's text as is
            try:
                open(args.out, "a").close()
            except OSError as exc:
                raise ConfigError(str(exc))
        if args.command == "sample-path":
            text = run_sample_path(cfg)
        else:
            text = run_study(cfg).to_csv()
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(str(exc))
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, MemoryError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
