"""``cli._csv_rows``, the sample path's CSV kernel, against "%.17g"."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stochheat import cli

# the split of a value beyond the fast-path window overflows: that must
# never be computed
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _percent_rows(states):
    row = ",".join(["%.17g"] * states.shape[1]) + "\n"
    return "".join([row % tuple(v) for v in states.tolist()])


def _power_neighbours(lo, hi):
    """The doubles nearest 10**k, and both their neighbours, lo <= k <= hi."""
    out = []
    for k in range(lo, hi + 1):
        x = float(Fraction(10) ** k)
        out += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return out


def _near_half(x):
    """Whether |x| 10**(16 - E), E = floor(log10 |x|), lies within 2**-40
    of a half: there the kernel leaves the rounding to '%.17g'."""
    t = abs(Fraction(x)) * Fraction(10) ** (16 - Decimal(x).adjusted())
    return abs(t - math.floor(t) - Fraction(1, 2)) <= Fraction(1, 2 ** 40)


def _near_halves():
    """Doubles x with x 10**m = N + 1/2 + k 2**-s for a 17-digit N, small
    k and m >= 23, where 10**m is no double: M 5**m = N 2**s + 2**(s-1) + k
    fixes N mod 5**m, and x = M 2**-(s + m) for a 53-bit M."""
    out = []
    for m in range(23, 120):
        q = 5 ** m
        s0 = math.floor(math.log2(q * 2 ** 52 / 1e17))
        for s in range(s0, s0 + 5):
            for k in (1, -1, 2, -2, 3, -3):
                for N in range(-(2 ** (s - 1) + k) * pow(2, -s, q) % q,
                               10 ** 17, q):
                    M = (N * 2 ** s + 2 ** (s - 1) + k) // q
                    if N >= 10 ** 16 and 2 ** 52 <= M < 2 ** 53:
                        out.append(math.ldexp(M, -s - m))
    return out


def _check(values, cols=1):
    """``values`` as rows of ``cols``, the last one filled up with 0."""
    states = np.zeros(-(-len(values) // cols) * cols)
    states[:len(values)] = values
    states = states.reshape(-1, cols)
    assert cli._csv_rows(states) == _percent_rows(states)


@pytest.fixture
def taken(monkeypatch):
    """The values ``_csv_rows`` hands to its per-value fallback."""
    seen = []

    def fallback(x):
        seen.append(x)
        return ("%.17g" % x).encode()
    monkeypatch.setattr(cli, "_fallback", fallback)
    return seen


@pytest.fixture
def no_fallback(monkeypatch):
    def fallback(x):
        raise AssertionError("fallback taken for %r" % x)
    monkeypatch.setattr(cli, "_fallback", fallback)


def _edges():
    tiny = 2.2250738585072014e-308
    v = [0.0, -0.0, 5e-324, tiny, math.nextafter(tiny, 0.0),
         math.nextafter(tiny, 1.0), 1.7976931348623157e308,
         1e-5, math.nextafter(1e-5, 1.0), math.nextafter(1e-4, 0.0), 1e-4,
         9.99999999999999e-05, 1e16, math.nextafter(1e16, 0.0),
         math.nextafter(1e17, 0.0), 1e17, 1.2345678901234567e16,
         1.2345678901234567e17, 2.0 ** 53, 2.0 ** 53 + 2, 0.5, 1.0, 123.0,
         1e-14]
    v += _power_neighbours(-323, 308)
    return v + [-x for x in v]


def test_edge_values_match_percent():
    # 1e-14 lies below 10**-14, yet its 17 digits round up to 10**17
    assert Fraction(1e-14) < Fraction(1, 10 ** 14)
    assert "%.17g" % 1e-14 == "1e-14"
    values = _edges() + [math.inf, -math.inf, math.nan]
    _check(values)
    _check(values[:-1], cols=len(values) - 1)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(-1e6, 1e6))))
def test_finite_doubles_match_percent(states):
    # subnormals and +-0 included; most arbitrary doubles lie outside the
    # fast path's window, the second strategy inside it
    assert cli._csv_rows(states) == _percent_rows(states)


def test_values_next_to_a_half_take_the_fallback(taken):
    # at most 3 * 2**-48 from a half: the product's error could round
    # them either way, so they must not be certified
    values = _near_halves()
    assert len(values) > 40
    _check(values + [-x for x in values], cols=5)
    assert len(taken) == 2 * len(values)


def test_every_value_through_the_fallback(taken, monkeypatch):
    monkeypatch.setattr(cli, "_FAST_EXP", 0)     # an empty window
    values = [v for v in _edges() if v != 0]
    _check(values, cols=3)
    assert len(taken) == len(values)


def test_fast_path_is_exact_on_its_own(no_fallback):
    # inside the window and away from halves (999999999999999.875 is
    # one): power-of-ten neighbours (where log10 is one off), the layout
    # switches and values spread over the whole window
    rng = np.random.default_rng(24)
    spread = rng.uniform(1.0, 10.0, 4000) * 10.0 ** rng.integers(
        -cli._FAST_EXP, cli._FAST_EXP, 4000)
    values = (_power_neighbours(-cli._FAST_EXP + 1, cli._FAST_EXP - 1)
              + [1e-5, 1e-4, 1e16, 1e17, 2.0 ** 53, 2.0 ** 53 + 2, 1e-14,
                 0.0] + list(spread))
    values = [x for x in values if x == 0 or not _near_half(x)]
    assert len(values) > 5000
    _check(values + [-x for x in values], cols=8)


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_exponent_survives_log10_one_ulp_off(toward, no_fallback,
                                             monkeypatch):
    # a libm's log10 may round across an integer next to a power of ten:
    # the exponent is fixed up against the exact powers either way
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    values = [x for x in _power_neighbours(-cli._FAST_EXP + 1,
                                           cli._FAST_EXP - 1)
              if not _near_half(x)]
    _check(values, cols=7)
