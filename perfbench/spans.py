"""Span tracing of stochheat's layers, installed from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent span).  A function is patched
under every name it is bound to in every loaded ``stochheat`` module, so
a caller that imported it by name (``solvers.step_factors``) is traced
as well as one that looks it up on its module.  Methods are patched on
their class.  ``uninstall()`` restores every original binding.

Spans stay in memory as lists; the caller writes them out at the end.
``GaussianCoefficientMap`` objects are tracked in a
``WeakKeyDictionary`` keyed by the object, so a map that is garbage
collected never lends its identity to a later one.
"""

import json
import sys
import time
import weakref

import numpy as np

PACKAGE = "stochheat"

# (module, attribute path) of every traced callable.
TRACED = (
    ("noise", "time_overlaps"),
    ("noise", "mode_cell_integrals"),
    ("noise", "sample"),
    ("deterministic", "step_factors"),
    ("deterministic", "modified_cn_fem"),
    ("deterministic", "l2t_error"),
    ("solvers", "propagator_time_profile"),
    ("solvers", "map_regularized"),
    ("solvers", "cross_moment"),
    ("solvers", "spectral_fem_gram"),
    ("solvers", "cn_fem_spde"),
    ("solvers", "stochastic_loads_fem"),
    ("solvers", "GaussianCoefficientMap.reconstruct"),
    ("solvers", "GaussianCoefficientMap.second_moment"),
    ("fem", "generalized_eigen"),
    ("fem", "sine_hat_inner_matrix"),
    ("fem", "hat_cell_overlap_matrix"),
    ("errors", "mc_error"),
    ("errors", "tdr_error_exact"),
    ("errors", "sdr_error_exact"),
    ("errors", "total_error_exact"),
    ("errors", "modeling_error_exact"),
    ("cli", "run_study"),
    ("cli", "run_sample_path"),
)

# Calls that count a GaussianCoefficientMap as used: which positional
# arguments are maps.
_MAP_USES = {
    "solvers.GaussianCoefficientMap.reconstruct": (0,),
    "solvers.GaussianCoefficientMap.second_moment": (0,),
    "solvers.cross_moment": (0, 1),
}


def out_bytes(value):
    """Computed size of the arrays a call returned (not measured RSS)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(out_bytes(v) for v in value)
    arrays = [getattr(value, a, None) for a in
              ("time", "space", "values", "vectors", "states", "increments")]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


class Tracer:
    """Records spans of the traced stochheat callables."""

    def __init__(self):
        self.names = []          # span name by name id
        self._ids = {}           # span name -> name id
        self.spans = []          # [name id, start, end, parent, out bytes]
        self.maps = weakref.WeakKeyDictionary()   # map -> serial
        self.maps_built = 0
        self.maps_used = set()   # serials
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_id(name))

    def _enter(self, nid):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, 0.0, 0.0, parent, 0])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        map_args = _MAP_USES.get(name, ())
        tracer = self

        def traced(*args, **kwargs):
            for i in map_args:
                serial = tracer.maps.get(args[i])
                if serial is not None:
                    tracer.maps_used.add(serial)
            idx = tracer._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer.spans[idx][4] = out_bytes(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _track_init(self, init):
        tracer = self

        def tracked(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer.maps[obj] = tracer.maps_built
            tracer.maps_built += 1

        tracked.__wrapped__ = init
        return tracked

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for modname, path in TRACED:
            mod = sys.modules["%s.%s" % (PACKAGE, modname)]
            name = "%s.%s" % (modname, path)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            fn = getattr(mod, path)
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, attr, wrapper)
        cls = sys.modules[PACKAGE + ".solvers"].GaussianCoefficientMap
        self._patch(cls, "__init__", self._track_init(cls.__dict__["__init__"]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- aggregation -------------------------------------------------------

    def mark(self):
        """Position to aggregate from: spans so far and maps so far."""
        return len(self.spans), self.maps_built

    def summary(self, since):
        """Aggregates of the spans recorded since ``mark()``.

        Returns per-name {calls, self_s, out_bytes}; per root span (one
        benchmark operation) the self seconds of each name below it; and
        the maps built and used.  Self time is a span's duration minus
        the durations of its direct children.
        """
        first_span, first_map = since
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        root = list(range(len(spans)))
        for i, s in enumerate(spans):
            if s[3] >= first_span:
                child[s[3] - first_span] += s[2] - s[1]
                root[i] = root[s[3] - first_span]
        totals, by_root = {}, {}
        for s, c, r in zip(spans, child, root):
            name = self.names[s[0]]
            rec = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                           "out_bytes": 0})
            rec["calls"] += 1
            rec["self_s"] += (s[2] - s[1]) - c
            rec["out_bytes"] += s[4]
            top = by_root.setdefault(self.names[spans[r][0]], {})
            top[name] = top.get(name, 0.0) + (s[2] - s[1]) - c
        built = self.maps_built - first_map
        used = sum(1 for serial in self.maps_used if serial >= first_map)
        return totals, by_root, built, used

    def dump(self, fh):
        """Write the spans as JSON lines: name, start, end, parent index."""
        for i, (nid, start, end, parent, nbytes) in enumerate(self.spans):
            fh.write(json.dumps({"id": i, "name": self.names[nid],
                                 "start": start, "end": end,
                                 "parent": parent, "out_bytes": nbytes}))
            fh.write("\n")


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.idx)
        return False
