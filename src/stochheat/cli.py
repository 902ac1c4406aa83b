"""Command line front end: sample paths, convergence studies, selftest.

Configuration is a flat key = value file; any key can be overridden on
the command line with --set.  Study output is CSV with one row per
refinement level and a trailing fitted-slope line.
"""

import argparse
import math
import sys

import numpy as np

from . import deterministic, errors, fem, noise, solvers
from .spectral import SpectralField

__all__ = ["main", "parse_config_text", "serialize_config", "run_study"]


class ConfigError(Exception):
    pass


STUDIES = ("model-space", "model-time", "tdr", "sdr", "total",
           "deterministic-cn")

_DEFAULTS = {
    "model-space": {
        "study": "model-space", "horizon": "1.0", "seed": "0",
        "samples": "0", "n_star": str(2 ** 16), "K": "8192",
        "dx_levels": "3,4,5,6,7,8", "window": "6",
    },
    "model-time": {
        "study": "model-time", "horizon": "1.0", "seed": "0",
        "samples": "0", "j_star": str(2 ** 10), "K": "8192",
        "dt_levels": "4,5,6,7,8,9,10,11,12", "window": "4",
    },
    "tdr": {
        "study": "tdr", "horizon": "1.0", "seed": "0", "samples": "0",
        "n_star": "1024", "j_star": "1024", "K": "4096",
        "dtau_levels": "4,5,6,7,8,9", "window": "4",
    },
    "sdr": {
        "study": "sdr", "horizon": "1.0", "seed": "0", "samples": "0",
        "n_star": "4096", "j_star": "1024", "K": "4096", "M": "4096",
        "h_levels": "3,4,5,6,7", "window": "4",
    },
    "total": {
        "study": "total", "horizon": "1.0", "seed": "0", "samples": "0",
        "n_star": "4096", "j_star": "1024", "K": "4096", "M": "4096",
        "h_levels": "3,4,5,6,7", "window": "4",
    },
    "deterministic-cn": {
        "study": "deterministic-cn", "horizon": "1.0", "seed": "0",
        "samples": "0", "axis": "time", "M": "4096",
        "dtau_levels": "4,5,6,7,8,9,10", "h_levels": "3,4,5,6,7",
        "window": "4",
    },
}

_SAMPLE_PATH_DEFAULTS = {
    "horizon": "1.0", "seed": "0", "n_star": "256", "j_star": "256",
    "M": "256", "mesh": "64",
}


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


def serialize_config(cfg):
    """Canonical text form: sorted keys, one per line."""
    return "".join("%s = %s\n" % (k, cfg[k]) for k in sorted(cfg))


def _merged(defaults, path, overrides):
    cfg = dict(defaults)
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
    horizon = _get_float(cfg, "horizon")
    if not 0.0 < horizon < math.inf:
        raise ConfigError("horizon must be positive and finite")
    return horizon


def _get_float(cfg, key):
    try:
        return float(cfg[key])
    except (KeyError, ValueError):
        raise ConfigError("bad or missing float key %r" % key)


def _levels(cfg, key):
    try:
        vals = [int(tok) for tok in cfg[key].split(",") if tok.strip()]
    except (KeyError, ValueError):
        raise ConfigError("bad or missing level list %r" % key)
    if len(vals) < 2 or any(v < 1 for v in vals):
        raise ConfigError("level list %r must hold at least two positive "
                          "exponents" % key)
    return vals


def _mc_rms(pairs, samples, seed):
    """Monte Carlo RMS of X - Y and its standard error, one per level.

    Each ``(map_a, map_b)`` of ``pairs`` is a level, whose squared
    distance ``solvers.squared_distance`` pairs once.  All levels see the
    same grids (read from the first map), so each sample draws its grid
    once, projects it once per distinct space factor and reconstructs
    each distinct map once.
    """
    maps = list({id(m): m for pair in pairs for m in pair}.values())
    dists = [solvers.squared_distance(a, b) for a, b in pairs]
    first = maps[0]

    def one(s):
        g = noise.sample(first.n_star, first.j_star, first.horizon, s)
        proj, coef = {}, {}
        for m in maps:
            if id(m.space()) not in proj:
                proj[id(m.space())] = m.project(g)
            coef[id(m)] = m.reconstruct(g, proj[id(m.space())])
        return [dist(coef[id(a)], coef[id(b)])
                for dist, (a, b) in zip(dists, pairs)]
    means, ses = errors.mc_error(one, samples, seed)
    return [(math.sqrt(mean),
             se / (2.0 * math.sqrt(mean)) if mean > 0 else 0.0)
            for mean, se in zip(means, ses)]


def run_study(cfg):
    """Run the configured convergence study; returns an ErrorReport."""
    study = cfg.get("study")
    if study not in STUDIES:
        raise ConfigError("unknown study %r" % study)
    horizon = _horizon(cfg)
    samples = _get_int(cfg, "samples")
    if samples < 0 or samples == 1:
        raise ConfigError("samples must be 0 or >= 2, got %d" % samples)
    seed = _get_int(cfg, "seed")
    window = _at_least(cfg, "window", 2)
    rep = errors.ErrorReport(study)

    if study == "model-space":
        n_star = _at_least(cfg, "n_star", 1)
        K = _at_least(cfg, "K", 1)
        for lvl, e in enumerate(_levels(cfg, "dx_levels")):
            j_star = 2 ** e
            err = errors.modeling_error_exact(horizon, n_star, j_star, K,
                                              horizon)
            rep.add_row(lvl, horizon / n_star, 1.0 / j_star, math.nan,
                        math.nan, K, err)
        rep.fit("dx", window)

    elif study == "model-time":
        j_star = _at_least(cfg, "j_star", 1)
        K = _at_least(cfg, "K", 1)
        for lvl, e in enumerate(_levels(cfg, "dt_levels")):
            n_star = 2 ** e
            err = errors.modeling_error_exact(horizon, n_star, j_star, K,
                                              horizon)
            rep.add_row(lvl, horizon / n_star, 1.0 / j_star, math.nan,
                        math.nan, K, err)
        rep.fit("dt", window)

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
        rows, pairs = [], []
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
                pairs.append((map_a, map_b))
        if samples:
            mc = _mc_rms(pairs, samples, seed)
        else:
            mc = [(math.nan, math.nan)] * len(rows)
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
            for lvl, e in enumerate(_levels(cfg, "h_levels")):
                system = fem.assemble(fem.Mesh(2 ** e))
                num = deterministic.modified_cn_fem(v0, system, M, dtau)
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
    grid = noise.sample(n_star, j_star, horizon, seed)
    traj = solvers.cn_fem_spde(grid, fem.assemble(mesh), M)
    row = ",".join(["%.17g"] * traj.states.shape[1]) + "\n"
    return "".join([row % tuple(v.tolist()) for v in traj.states])


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
        rev = np.arange(K)[::-1]
        for a, b, r in ((over, over, None), (over, cn, None), (cn, cn, None),
                        (over, cn, rev), (cn, cn, rev), (cn, over, rev),
                        (cn, cn2, None)):
            ref = (a.dense() * b.dense()[ks - 1 if r is None else r]).sum(1)
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
        p.add_argument("--samples", type=int)
        p.add_argument("--set", action="append", dest="overrides",
                       metavar="KEY=VALUE")
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
        if args.command == "sample-path":
            cfg = _merged(_SAMPLE_PATH_DEFAULTS, args.config, args.overrides)
        else:
            given = _merged({}, args.config, args.overrides)
            study = given.get("study", "model-space")
            if study not in _DEFAULTS:
                raise ConfigError("unknown study %r" % study)
            cfg = dict(_DEFAULTS[study])
            cfg.update(given)
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        if getattr(args, "samples", None) is not None:
            cfg["samples"] = str(args.samples)
        if args.command == "sample-path":
            text = run_sample_path(cfg)
        else:
            text = run_study(cfg).to_csv()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
