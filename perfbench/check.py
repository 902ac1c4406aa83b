"""Output checks behind ``fail_frac``.

Exact columns are compared with the values stored in ``reference.json``
(written by ``make_reference.py`` from the seed commit):

* ``error_exact`` of every row and the fitted slope must agree with the
  reference to a relative deviation of ``REL_TOL``.  Closed-form
  rewrites of the kernels are expected to move the last digits by up to
  about 5e-13; a wrong kernel moves them by far more than 1e-9.
* the slope must stay inside the acceptance band of the operation, when
  it has one.
* a Monte Carlo row must satisfy ``|error_mc - error_exact| <= MC_Z *
  stderr``; this holds for any seed with overwhelming probability.
* a sample path must have shape ``(M + 1) x (mesh - 1)``, only finite
  values, and a zero first row (zero initial data).
"""

import math

import numpy as np

REL_TOL = 1e-9
MC_Z = 6.0

COLUMNS = ("study", "level", "dt", "dx", "dtau", "h", "K",
           "error_exact", "error_mc", "stderr")


class CheckFailure(Exception):
    pass


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def parse_study_csv(text):
    """Rows (as dicts of floats) and slope of a study CSV."""
    lines = text.rstrip("\n").split("\n")
    if tuple(lines[0].split(",")) != COLUMNS:
        raise CheckFailure("unexpected header %r" % lines[0])
    if not lines[-1].startswith("slope,"):
        raise CheckFailure("missing slope line")
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            raise CheckFailure("row with %d fields" % len(fields))
        rows.append({c: float(v) for c, v in zip(COLUMNS[1:], fields[1:])})
    return rows, float(lines[-1].partition(",")[2])


def check_study(op, text, ref):
    """Largest relative deviation from the reference; raises on failure."""
    rows, slope = parse_study_csv(text)
    exact = ref["error_exact"]
    if len(rows) != len(exact):
        raise CheckFailure("%d rows, reference has %d" % (len(rows), len(exact)))
    dev = 0.0
    for i, (row, want) in enumerate(zip(rows, exact)):
        got = row["error_exact"]
        if not math.isfinite(got):
            raise CheckFailure("level %d: error_exact not finite" % i)
        d = _rel(got, want)
        dev = max(dev, d)
        if d > REL_TOL:
            raise CheckFailure("level %d: error_exact %r vs reference %r "
                               "(rel %.3g)" % (i, got, want, d))
        if op.samples > 1:
            mc, se = row["error_mc"], row["stderr"]
            if not (math.isfinite(mc) and math.isfinite(se) and se > 0.0):
                raise CheckFailure("level %d: bad Monte Carlo row" % i)
            if abs(mc - got) > MC_Z * se:
                raise CheckFailure("level %d: |error_mc - error_exact| = %.3g "
                                   "> %g stderr (%.3g)"
                                   % (i, abs(mc - got), MC_Z, se))
    d = _rel(slope, ref["slope"])
    dev = max(dev, d)
    if d > REL_TOL:
        raise CheckFailure("slope %r vs reference %r (rel %.3g)"
                           % (slope, ref["slope"], d))
    if op.band is not None and not (op.band[0] <= slope <= op.band[1]):
        raise CheckFailure("slope %.4f outside acceptance band %s"
                           % (slope, op.band))
    return dev


def check_sample_path(text, M, mesh):
    """Row by row, so the check adds little to the worker's peak RSS."""
    rows, start = 0, 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            raise CheckFailure("last row not terminated")
        row = text[start:end]
        start = end + 1
        if row.count(",") != mesh - 2:
            raise CheckFailure("row %d: expected %d values" % (rows, mesh - 1))
        values = np.array(row.split(","), dtype=float)
        if not np.all(np.isfinite(values)):
            raise CheckFailure("row %d: non-finite value" % rows)
        if rows == 0 and np.any(values != 0.0):
            raise CheckFailure("first row is not the zero initial state")
        rows += 1
    if rows != M + 1:
        raise CheckFailure("%d rows, expected %d" % (rows, M + 1))
    return 0.0


def check(op, text, reference):
    """Check one operation's output; returns the relative deviation."""
    if op.kind == "sample-path":
        return check_sample_path(text, int(op.get("M")),
                                 int(op.get("mesh")))
    if op.name not in reference:
        raise CheckFailure("no reference for %s" % op.name)
    return check_study(op, text, reference[op.name])
