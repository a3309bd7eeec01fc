"""Exact, model-side quantities for series with known first and second moments.

A process model is a :class:`ProcessSpec`: a mean function ``t -> E[X_t]``
and a covariance function ``(t, s) -> Cov(X_t, X_s)`` over 1-based time
indices.  From the spec alone (no sampling) this module computes

* ``m_n``   -- the average of the first ``n`` expectation values,
* ``V_n``   -- the double sum of covariances over ``1 <= t, s <= n``,
* ``Var(A_n) = V_n / n^2`` -- the exact variance of the time average,
* the integrated correlation time ``tau`` and effective sample size ``n/tau``
  for weakly stationary covariances, and
* a growth classification of ``V_n`` (sub-quadratic vs. quadratic in ``n``),
  which decides whether the time average converges to ``m_n``.

``V_n`` has three routes, picked by ``covariance_sum(method="auto")`` from
the structure the spec declares:

* lag sum    -- a stationary spec (``spec.stationary``) gives
  ``V_n = n*gamma(0) + 2*sum_h (n-h)*gamma(h)``, O(n);
* variances  -- a spec of uncorrelated terms (``Cov(X_t, X_s) = 0`` for
  ``t != s``, e.g. independent terms) that gives ``spec.var_fn`` has
  ``V_n = sum_t Var(X_t)``, O(n), bit-identical to the double sum;
* double sum -- any other spec is summed over all ``n x n`` pairs, O(n^2).
  ``method="double"`` forces it, as the cross-check for the other two.

Every ``mean_fn``, ``cov_fn``, ``gamma`` and ``var_fn`` is called once per
block of indices, with numpy integer arrays, and must return floats of
their broadcast shape; a wrong shape raises a ``ValueError`` naming the
callable, and an exception from the callable propagates unchanged.  A
function written for scalars works once wrapped as
``np.vectorize(fn, otypes=[float])``, at the cost of one Python call per
element.

One rule holds for every count, length, seed and index in the package (a
series length ``n``, a lag, a replicate count, a worker count, a stream
seed or index): it is any integer except a bool, NumPy integers included,
and is used as the ``int`` of equal value, never truncated.  Anything else,
or a value outside the argument's bounds, raises a ``ValueError`` that
names the argument, shows the value and states the bound
(:func:`_integer`).  An echoed value longer than 80 characters is cut
(:func:`_echo`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "DegenerateSeriesError",
    "NON_SUMMABLE",
    "NonSummable",
    "StationaryCov",
    "ProcessSpec",
    "GrowthClass",
    "GrowthReport",
    "EssResult",
    "mean_average",
    "covariance_sum",
    "time_average_variance",
    "correlation_time",
    "effective_sample_size",
    "classify_growth",
]

# Consecutive small tail increments required before the lag sum is declared
# converged, the element budget per evaluation block of the double sum, and
# the first lag chunk of correlation_time (each later chunk doubles, up to
# _BLOCK_ELEMENTS lags).
_TAIL_RUN = 10
_BLOCK_ELEMENTS = 1 << 22
_FIRST_LAG_CHUNK = 1024
# A small term's byte in correlation_time's flags: a bool array's bytes are
# 0 and 1.
_SMALL = b"\x01"
# Characters of a value that an error message echoes before it is cut.
_ECHO_CHARS = 80


class DegenerateSeriesError(ValueError):
    """Raised when a series has no variance to normalize by."""


class NonSummable:
    """Singleton marker for an autocovariance sequence with no finite sum."""

    __slots__ = ()
    _instance: "NonSummable | None" = None

    def __new__(cls) -> "NonSummable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NON_SUMMABLE"


NON_SUMMABLE = NonSummable()


@dataclass(frozen=True)
class StationaryCov:
    """Autocovariance of a weakly stationary sequence, as a function of lag.

    ``gamma`` maps an array of non-negative integer lags to the
    autocovariances at those lags, with ``|gamma(h)| <= gamma(0)``.
    """

    gamma: Callable[..., object]


@dataclass(frozen=True)
class ProcessSpec:
    """First- and second-moment description of a real-valued sequence.

    ``mean_fn(t)`` returns ``E[X_t]`` and ``cov_fn(t, s)`` returns
    ``Cov(X_t, X_s)`` for 1-based indices, each called with integer arrays
    and returning floats of their broadcast shape (wrap a scalar function
    in ``np.vectorize(fn, otypes=[float])``).  ``cov_fn`` must be symmetric
    in its arguments with non-negative diagonal.  When the sequence is weakly
    stationary, ``stationary`` carries the lag form of the covariance and
    must agree with ``cov_fn(t, s) == stationary.gamma(|t - s|)``.

    When the terms are uncorrelated, the keyword-only ``var_fn(t)`` gives
    ``Var(X_t)`` and must agree with ``cov_fn(t, t)``, with ``cov_fn(t, s)
    == 0`` for ``t != s``.  :func:`covariance_sum` then sums ``var_fn``
    alone, in O(n) instead of O(n^2), and ``cov_fn`` serves the double
    sum, its cross-check.
    """

    mean_fn: Callable[..., object]
    cov_fn: Callable[..., object]
    stationary: StationaryCov | None = None
    var_fn: Callable[..., object] | None = field(default=None, kw_only=True)


class GrowthClass(str, Enum):
    """Growth regime of the covariance sum ``V_n``."""

    SUBQUADRATIC = "SUBQUADRATIC"
    QUADRATIC = "QUADRATIC"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class GrowthReport:
    """Diagnostics for how ``V_n`` grows with ``n``.

    ``fitted_slope`` is the least-squares slope of ``log V_n`` against
    ``log n`` over the top decade of the grid; ``liminf_estimate`` is the
    smallest ``V_n / n^2`` seen there.  Sub-quadratic growth (slope below 2,
    ``V_n / n^2`` shrinking) is the convergence regime; quadratic growth
    (slope near 2 with ``V_n / n^2`` bounded away from zero) rules out mean
    square convergence.  The raw slope and liminf are surfaced so callers can
    apply their own thresholds.
    """

    n_grid: tuple[int, ...]
    vn_values: tuple[float, ...]
    vn_over_n2: tuple[float, ...]
    fitted_slope: float
    liminf_estimate: float
    classification: GrowthClass

    def to_dict(self) -> dict:
        slope = None if math.isnan(self.fitted_slope) else self.fitted_slope
        return {
            "n_grid": list(self.n_grid),
            "vn_values": list(self.vn_values),
            "vn_over_n2": list(self.vn_over_n2),
            "fitted_slope": slope,
            "liminf_estimate": self.liminf_estimate,
            "classification": self.classification.value,
        }


@dataclass(frozen=True)
class EssResult:
    """Effective sample size, flagged when the correlation time diverges."""

    value: float
    non_summable: bool = False


def _echo(value: object, size: str | None = None) -> str:
    """``repr(value)`` for an error message, cut after ``_ECHO_CHARS``
    characters and followed by ``... (size)``, where ``size`` defaults to
    the length of the repr: an echoed input can be as long as a file."""
    try:
        shown = repr(value)
    except ValueError:  # it holds an int past the digit limit of str()
        shown = f"<{type(value).__name__} past the int digit limit>"
    return _cut(shown, size or f"{len(shown)} characters")


def _cut(shown: str, size: str) -> str:
    """``shown`` cut after ``_ECHO_CHARS`` characters, then ``... (size)``."""
    return shown if len(shown) <= _ECHO_CHARS else f"{shown[:_ECHO_CHARS]}... ({size})"


def _integer(value: object, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an ``int`` in ``[low, high]`` (``high=None``: no upper
    bound), else a ``ValueError`` naming ``name``.

    Any ``numbers.Integral`` but a bool is an integer: a bool is an ``int``
    subclass, but true is not a count or a seed.  A plain ``int`` skips the
    ABC check.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {_echo(value)}")
        value = int(value)
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {_echo(value)}")
    return value


def _eval_elementwise(fn: Callable, name: str, *index_arrays: np.ndarray) -> np.ndarray:
    """Call ``fn`` once; its result as floats of the arrays' broadcast shape.

    Exceptions from ``fn`` propagate; a result of another shape raises a
    ``ValueError`` naming the callable as ``name``.
    """
    if len(index_arrays) == 1:
        shape = index_arrays[0].shape
    else:
        shape = np.broadcast_shapes(*(a.shape for a in index_arrays))
    out = np.asarray(fn(*index_arrays), dtype=float)
    if out.shape != shape:
        raise ValueError(
            f"{name} returned shape {out.shape} for index arrays of shape {shape}"
        )
    return out


def mean_average(spec: ProcessSpec, n: int) -> float:
    """Average of the first ``n`` expectation values, ``(1/n) sum_t E[X_t]``.

    Summation runs over ascending ``t`` with pairwise accumulation, so the
    result is reproducible to ~1e-12 across platforms.
    """
    n = _integer(n, "n", 1)
    t = np.arange(1, n + 1, dtype=np.int64)
    mu = _eval_elementwise(spec.mean_fn, "mean_fn", t)
    return float(np.add.reduce(mu)) / n


def _lag_decomposition_sum(stationary: StationaryCov, n: int) -> float:
    """``V_n`` for a stationary covariance: ``n*g(0) + 2*sum (n-h)*g(h)``."""
    g = _eval_elementwise(stationary.gamma, "gamma", np.arange(n, dtype=np.int64))
    g0 = float(g[0])
    if n == 1:
        return g0
    # n - h for h = 1 .. n - 1, descending: integers below 2**53, exact as floats.
    weighted = np.arange(n - 1, 0, -1, dtype=float)
    return n * g0 + 2.0 * float(np.add.reduce(np.multiply(weighted, g[1:], out=weighted)))


def covariance_sum(spec: ProcessSpec, n: int, method: str = "auto") -> float:
    """Double sum of covariances ``V_n = sum_{t,s <= n} Cov(X_t, X_s)``.

    ``method="auto"`` (the default) takes the route the spec declares (see
    the module docstring): the stationary lag decomposition, accurate to the
    order of ``u * S``, ``u = 2**-53``, ``S = n|g(0)| + 2 sum (n-h)|g(h)|``,
    absolutely, not relative to ``V_n`` (its own rounding adds at most about
    ``(ceil(log2 n) + 2) * u * S``; Higham 2002, ch. 4): for ``g(h) =
    cos(2 pi h / 50)``, whose ``V_n`` is 0 at multiples of 50, it returns
    -2.8e-5 at n = 1e6, mostly from the rounding of ``g``'s values; the sum
    of ``var_fn(t)`` for a spec that gives it, the same float as
    ``"double"`` because each of its row sums is the diagonal term plus
    exact zeros; else ``"double"``.  ``method="double"`` evaluates all
    ``n x n`` covariances (ascending rows, pairwise summation within each
    row, then pairwise over the row sums), O(n^2), whatever the spec
    declares.
    """
    n = _integer(n, "n", 1)
    if method not in ("auto", "double"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and spec.stationary is not None:
        return _lag_decomposition_sum(spec.stationary, n)
    if method == "auto" and spec.var_fn is not None:
        t = np.arange(1, n + 1, dtype=np.int64)
        return float(np.add.reduce(_eval_elementwise(spec.var_fn, "var_fn", t)))

    s = np.arange(1, n + 1, dtype=np.int64)
    row_sums = np.empty(n, dtype=float)
    block = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(1, n + 1, block):
        t = np.arange(lo, min(lo + block, n + 1), dtype=np.int64)
        c = _eval_elementwise(spec.cov_fn, "cov_fn", t[:, None], s[None, :])
        row_sums[lo - 1 : lo - 1 + t.size] = c.sum(axis=1)
    return float(np.sum(row_sums))


def time_average_variance(spec: ProcessSpec, n: int) -> float:
    """Exact variance of the time average: ``covariance_sum(spec, n) / n**2``."""
    n = _integer(n, "n", 1)
    return covariance_sum(spec, n) / float(n * n)


def correlation_time(
    cov: StationaryCov,
    abs_tol: float = 1e-10,
    max_terms: int = 100_000,
) -> float | NonSummable:
    """Integrated correlation time of a stationary covariance.

    Returns the two-sided normalized sum
    ``tau = (gamma(0) + 2 * sum_{h=1..H} gamma(h)) / gamma(0)``, where ``H``
    is the first lag at which ``|2 * gamma(h)| < abs_tol`` has held for
    ``_TAIL_RUN`` consecutive lags.  With this convention an uncorrelated
    sequence has ``tau == 1`` and the variance of the mean of ``n`` terms is
    inflated by roughly ``tau``.

    Returns :data:`NON_SUMMABLE` when no such ``H <= max_terms`` exists, i.e.
    the lag sum shows no sign of converging.

    ``H`` depends only on which terms are small, so it is found first; then
    one in-order ``np.add.accumulate`` runs to ``H``, and the result is the
    float a lag-by-lag loop reaches.  A :data:`NON_SUMMABLE` result sums
    nothing and doubles no ``gamma(h)``.

    Raises
    ------
    DegenerateSeriesError
        If ``gamma(0) <= 0``.
    """
    if not abs_tol > 0:
        raise ValueError(f"abs_tol must be > 0, got {abs_tol}")
    max_terms = _integer(max_terms, "max_terms", 1)
    # Lags are evaluated in chunks of 1024, 2048, ... (at most _BLOCK_ELEMENTS
    # lags each); the first call also evaluates lag 0.  Run lengths are
    # worked out only in a chunk with a small term; in any other chunk the
    # run ends at 0.  Each chunk's gamma(h) wait until H is known, and are
    # doubled into the terms 2 * gamma(h) only to be summed.  Once
    # _BLOCK_ELEMENTS lags wait, they are summed into the carried total, so
    # at most about two chunks' values are held.
    lo, size = 1, _FIRST_LAG_CHUNK
    g = _eval_elementwise(cov.gamma, "gamma", np.arange(min(size, max_terms) + 1, dtype=np.int64))
    g0 = float(g[0])
    if g0 <= 0:
        raise DegenerateSeriesError(f"gamma(0) must be > 0, got {g0}")
    g = g[1:]
    total = g0  # the sum of gamma(0) and the terms no longer waiting
    waiting: list[np.ndarray] = []
    run = 0  # small increments in a row, carried across chunks
    while True:
        magnitude = np.absolute(g)
        # Some |2 * gamma(h)| is below abs_tol exactly when twice the least
        # |gamma(h)| is: doubling is monotone, and fmin skips NaN, which is
        # never small.
        if 2.0 * float(np.fmin.reduce(magnitude)) < abs_tol:
            # |2 * gamma(h)| is |gamma(h)| + |gamma(h)|, exactly.
            small = np.less(np.add(magnitude, magnitude, out=magnitude), abs_tol)
            # One byte per lag, 1 for a small term, after the run carried in:
            # the first _TAIL_RUN ones in a row end at H.
            flags = _SMALL * run + small.tobytes()
            start = flags.find(_SMALL * _TAIL_RUN)
            if start >= 0:
                waiting.append(g[: start + _TAIL_RUN - run])
                return _accumulate(total, waiting) / g0
            run = len(flags) - len(flags.rstrip(_SMALL))
        else:
            run = 0
        waiting.append(g)
        if sum(w.size for w in waiting) >= _BLOCK_ELEMENTS:
            total, waiting = _accumulate(total, waiting), []
        lo, size = lo + g.size, min(2 * size, _BLOCK_ELEMENTS)
        if lo > max_terms:
            return NON_SUMMABLE
        h = np.arange(lo, min(lo + size, max_terms + 1), dtype=np.int64)
        g = _eval_elementwise(cov.gamma, "gamma", h)


def _accumulate(total: float, chunks: list[np.ndarray]) -> float:
    """``total`` plus every term ``2 * gamma(h)`` of the ``gamma`` values in
    ``chunks``, added one at a time in order: ``total`` is added to a
    chunk's first term, then ``np.add.accumulate`` adds in order, in place,
    so the result is the partial sum a lag-by-lag loop reaches."""
    for chunk in chunks:
        terms = np.multiply(chunk, 2.0)
        terms[0] += total
        total = float(np.add.accumulate(terms, out=terms)[-1])
    return total


def effective_sample_size(n: int, tau: float | NonSummable) -> EssResult:
    """Effective number of independent observations, ``n / tau``.

    A non-summable correlation time means no effective samples accrue; by
    convention the result is 0 with ``non_summable`` set.
    """
    n = _integer(n, "n", 1)
    if isinstance(tau, NonSummable):
        return EssResult(0.0, non_summable=True)
    tau = float(tau)
    if not math.isfinite(tau) or tau <= 0:
        raise ValueError(f"tau must be a positive finite number, got {tau}")
    return EssResult(n / tau)


def _top_decade_indices(n_grid: tuple[int, ...]) -> list[int]:
    sel = [i for i, n in enumerate(n_grid) if 10 * n >= n_grid[-1]]
    if len(sel) < 2:
        sel = [len(n_grid) - 2, len(n_grid) - 1]
    return sel


def classify_growth(n_grid: list[int], vn_values: list[float]) -> GrowthReport:
    """Classify the growth of ``V_n`` from its values on an ``n`` grid.

    Fits the least-squares slope of ``log V_n`` vs ``log n`` over grid points
    in the top decade (``n >= n_max / 10``; the last two points if fewer than
    two land there).  Classification is ``QUADRATIC`` when the slope is at
    least 1.9 and ``V_n / n^2`` stays positive, ``SUBQUADRATIC`` when the
    slope is at most 1.9 and ``V_n / n^2`` is strictly decreasing over the
    top decade, and ``INDETERMINATE`` otherwise (including any zero ``V_n``
    in the fit window, where the log slope is undefined).

    The grid must be strictly increasing, have at least 4 points, span at
    least one decade and square to floats (``n`` below about 1.34e154);
    every ``V_n`` must be finite and non-negative.

    The slope's float is fixed by its recipe: one ``np.log`` call on the
    fit window's ``n`` then its ``V_n`` (``x`` and ``y``, ``k`` points
    each); ``dx = x - np.add.reduce(x) / k``; and ``np.add.reduce(dx * (y
    - np.add.reduce(y) / k)) / np.add.reduce(dx * dx)``.  ``np.add.reduce``
    sums in NumPy's pairwise order (eight accumulators from eight values
    on), so these are the floats of ``.mean()`` and ``np.sum``.
    """
    grid = [_integer(v, "n_grid entry", 1) for v in n_grid]
    rule = "vn_values must be finite and non-negative (each is a variance)"
    try:
        vals = [float(v) for v in vn_values]
    except OverflowError:  # an int past the float range
        raise ValueError(rule) from None
    if len(grid) != len(vals):
        raise ValueError(
            f"n_grid and vn_values lengths differ: {len(grid)} vs {len(vals)}"
        )
    if len(grid) < 4:
        raise ValueError(f"n_grid needs at least 4 points, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    if grid[-1] < 10 * grid[0]:
        raise ValueError("n_grid must span at least one decade")
    # float(n * n) overflows from 2**1024 - 2**970; the last square is the largest.
    if grid[-1] * grid[-1] >= 2**1024 - 2**970:
        raise ValueError(f"n_grid entries must be below about 1.34e154, got {_echo(grid[-1])}")
    if any(not 0 <= v < math.inf for v in vals):
        raise ValueError(rule)

    ratios = tuple(v / float(n * n) for n, v in zip(grid, vals))
    sel = _top_decade_indices(tuple(grid))

    if all(vals[i] > 0 for i in sel):
        k, add = len(sel), np.add.reduce
        logs = np.log([float(grid[i]) for i in sel] + [vals[i] for i in sel])
        x, y = logs[:k], logs[k:]
        dx = x - add(x) / k
        slope = float(add(dx * (y - add(y) / k)) / add(dx * dx))
    else:
        slope = math.nan

    liminf = float(min(ratios[i] for i in sel))
    sel_ratios = [ratios[i] for i in sel]
    decreasing = all(b < a for a, b in zip(sel_ratios, sel_ratios[1:]))

    if not math.isnan(slope) and slope >= 1.9 and liminf > 0:
        classification = GrowthClass.QUADRATIC
    elif not math.isnan(slope) and slope <= 1.9 and decreasing:
        classification = GrowthClass.SUBQUADRATIC
    else:
        classification = GrowthClass.INDETERMINATE

    return GrowthReport(
        n_grid=tuple(grid),
        vn_values=tuple(vals),
        vn_over_n2=ratios,
        fitted_slope=slope,
        liminf_estimate=liminf,
        classification=classification,
    )
