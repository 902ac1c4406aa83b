"""One workload in a fresh process: a closed-loop caller of stochheat.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  ``--t0`` is the parent's ``time.monotonic()`` just before the
process was spawned (the clock is system wide), so ``setup_s`` runs from
process start until ``stochheat.cli`` is imported and every operation's
configuration is parsed.

The worker then issues the workload's operations in order, one pass
after another, until ``--seconds`` have elapsed and at least
``--min-passes`` passes are done,
checks every output outside the timed region, and prints one JSON
object on stdout.
"""

import argparse
import hashlib
import sys
import time
import traceback


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--min-passes", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--reference")
    p.add_argument("--spans")
    return p.parse_args(argv)


def main(argv=None):
    args = _args(argv)
    from stochheat import cli
    import workloads
    ops = workloads.ops(args.workload, args.seed, args.smoke)
    configs = [cli.parse_config_text(op.config) for op in ops]
    setup_s = time.monotonic() - args.t0

    import json
    import resource

    import check
    import stochheat

    out = {"setup_s": setup_s, "stochheat_file": stochheat.__file__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    with open(args.reference) as fh:
        reference = json.load(fh)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    results = {op.name: {"seconds": [], "digests": [], "ok": [],
                         "reasons": [], "rel_dev_max": 0.0}
               for op in ops}
    passes, per_pass = [], []
    begin = time.perf_counter()
    while (len(passes) < args.min_passes
           or time.perf_counter() - begin < args.seconds):
        mark = tracer.mark() if tracer else None
        wall = 0.0
        for op, cfg in zip(ops, configs):
            rec = results[op.name]
            text, error = None, None
            t0 = time.perf_counter()
            try:
                if tracer:
                    with tracer.span("op." + op.name):
                        text = _run(cli, op, cfg)
                else:
                    text = _run(cli, op, cfg)
            except Exception:   # any failure of the call counts
                error = traceback.format_exc()[-2000:]
            seconds = time.perf_counter() - t0
            wall += seconds
            rec["seconds"].append(seconds)
            if error is None:
                rec["digests"].append(_digest(text))
                try:
                    dev = check.check(op, text, reference)
                    rec["rel_dev_max"] = max(rec["rel_dev_max"], dev)
                except check.CheckFailure as exc:
                    error = str(exc)
            else:
                rec["digests"].append(None)
            rec["ok"].append(error is None)
            if error is not None and len(rec["reasons"]) < 5:
                rec["reasons"].append(error)
            del text
        passes.append(wall)
        if tracer:
            calls, by_op, built, used = tracer.summary(mark)
            per_pass.append({"calls": calls, "by_op": by_op,
                             "maps_built": built, "maps_used": used})
    if tracer:
        tracer.uninstall()
        if args.spans:
            with open(args.spans, "w") as fh:
                tracer.dump(fh)

    out.update(passes=passes, ops=results, trace=per_pass or None,
               peak_rss_mib=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               env=_env())
    print(json.dumps(out))
    return 0


def _digest(text, chunk=1 << 20):
    """sha256 of the UTF-8 bytes, encoded a chunk at a time."""
    h = hashlib.sha256()
    for i in range(0, len(text), chunk):
        h.update(text[i:i + chunk].encode())
    return h.hexdigest()


def _run(cli, op, cfg):
    """One operation: the CSV text a CLI user would receive."""
    if op.kind == "sample-path":
        return cli.run_sample_path(dict(cfg))
    return cli.run_study(dict(cfg)).to_csv()


def _env():
    """Library versions, BLAS build and live BLAS thread count."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                       and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": threads}


if __name__ == "__main__":
    sys.exit(main())
