"""Monte Carlo experiments that verify the convergence theory numerically.

:func:`run_experiment` samples one replicate ensemble of a configured process
at the longest of a grid of series lengths and, for each length, compares the
empirical mean squared error of the time average over that prefix against the
exact ``V_n / n^2``, tabulates tail frequencies against Chebyshev upper and
Paley-Zygmund lower bounds, classifies the exact growth of ``V_n``, and issues
a PASS / FAIL / SKIPPED verdict per requested check; with ``n_grid=(n,)``
it gives the variance-identity verdict at the one length ``n``.
Everything it takes from a process, the spec, the sampler, ``max_n``, the
default checks and the exact ``sd((A_n - m_n)^2)`` behind the MSE's
standard error and the Paley-Zygmund bounds, comes from the config's
:class:`~ergodiag.processes.Model`, one of the registered families or the
caller's own.

Checks
------
Each check lists its legs, comparisons of a sampled statistic with an exact
reference; :func:`_judge` FAILs it at the first leg to fail (:data:`_FAILS`).

=================  ===============  ==================  =====  =  =======
leg                statistic        reference           se     z  side
=================  ===============  ==================  =====  =  =======
VARIANCE_IDENTITY  MSE at n         exact ``Var(A_n)``  MC     4  apart
L2_CONVERGENCE     last MSE         first MSE           hypot  4  above
WLLN rise          tail at next n   tail at n           hypot  2  above
WLLN net drop      last tail        first tail          hypot  2  no drop
NONCONV floor      MSE at n         0.9 * liminf        none   -  below
NONCONV PZ         last tail        Paley-Zygmund       bin    4  below
BOUNDS Chebyshev   tail at n        Chebyshev           bin    4  above
BOUNDS PZ          tail at n        Paley-Zygmund       bin    4  below
=================  ===============  ==================  =====  =  =======

``MC`` is the exact SE of the MSE under the null, ``sd((A_n - m_n)^2) /
sqrt(R)`` from the family's ``squared_deviation_sd``, ``bin`` the binomial SE
``sqrt(t (1 - t) / R)`` of a tail ``t`` over ``R`` replicates, and ``hypot``
combines the SEs of the two grid points compared.  They share replicates, so
``hypot`` overstates the noise of their difference: it is conservative for
``above``, and asks ``no drop`` for a larger drop than needed.  A PZ leg is
listed where ``eps^2 <= Var(A_n)`` (for NONCONVERGENCE, ``eps^2 < liminf``
too), so the legs depend on the config and the exact moments only.
L2_CONVERGENCE first FAILs, with no legs, on ``V_n`` growth that is not
sub-quadratic or an exact ``Var(A_n)`` that does not shrink.  For the
sparse-spike family, WLLN tails shrinking at eps = 0.1 while
``Var(A_n) -> 1/2`` show convergence in probability but not in mean square.

Seed discipline
---------------
All sampling derives from ``base_seed`` through the stream derivation of
:mod:`ergodiag.processes`.  An experiment samples one ensemble and its
checks draw nothing: each is a function of the report, that is of the
ensemble's statistics and the exact moments.  The ensemble is sampled at the
longest grid length ``N``, from the base ``derive_stream(base_seed, N)``:
replicate ``r`` uses stream index ``r``, and grid point ``n`` averages the
first ``n`` values of each replicate's path.  A family's sampler is
prefix-consistent, so that average is bit for bit the time average of the
replicate's path sampled at length ``n`` alone; the grid points share their
replicates, as in a common-random-numbers design.  Replicates are sampled by
:func:`~ergodiag.processes.sample_blocks`, which picks the block size and
the worker count (``max_workers`` overrides it), and each block is reduced
to its rows' prefix averages, written by replicate index.  Each total is
NumPy's pairwise sum of that prefix, the sum
:func:`~ergodiag.estimators.time_average` takes of a path, so no average
depends on which rows share a block, and reports are identical for any
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .bounds import chebyshev_bound, paley_zygmund_lower
from .estimators import empirical_tail, ensemble_mse, time_average
from .model import (
    GrowthClass,
    GrowthReport,
    ProcessSpec,
    _echo,
    _integer,
    classify_growth,
    covariance_sum,
    mean_average,
    time_average_variance,
)
from .processes import (
    _MASK64,
    ProcessConfig,
    _model,
    _number,
    _require_in_memory,
    build_spec,
    derive_stream,
    enumerate_squared_average_variance,
    sample_blocks,
    sample_path,
    sparse_spike_squared_average_variance,
)

# Nothing here calls ``sample_path``, ``time_average``,
# ``enumerate_squared_average_variance`` or
# ``sparse_spike_squared_average_variance`` any more; they stay importable
# from this module because bench/spans.py wraps them by name.

__all__ = [
    "Check",
    "Verdict",
    "ExperimentConfig",
    "PerNStats",
    "ConvergenceReport",
    "run_experiment",
    "default_checks",
    "DEFAULT_N_GRID",
    "DEFAULT_EPSILONS",
    "DEFAULT_REPLICATES",
]

DEFAULT_N_GRID = (100, 1000, 10_000)
DEFAULT_EPSILONS = (0.1, 0.05, 0.01)
DEFAULT_REPLICATES = 10_000

_Z_DEFAULT = 4.0
# A tail below this needs no net drop: it has converged, and a drop is noise.
_TINY_TAIL = 0.02


class Check(str, Enum):
    """Verifiable consequences of the convergence theory."""

    VARIANCE_IDENTITY = "VARIANCE_IDENTITY"
    L2_CONVERGENCE = "L2_CONVERGENCE"
    WLLN = "WLLN"
    NONCONVERGENCE = "NONCONVERGENCE"
    BOUNDS = "BOUNDS"


_CHECK_ORDER = tuple(Check)


@dataclass(frozen=True)
class Verdict:
    status: str  # "PASS" | "FAIL" | "SKIPPED"
    message: str = ""

    def to_dict(self) -> dict:
        return {"status": self.status, "message": self.message}


def default_checks(family: object) -> frozenset[Check]:
    """Checks that are meaningful for a model (those it should pass): a
    ``Model``, or a family or its name, resolved as ``ProcessConfig`` does."""
    return frozenset(Check(name) for name in _model(family).checks)


def _sequence(values: object, name: str) -> tuple:
    # A string or a mapping iterates over its characters or keys, not over
    # entries, so neither is taken for a list.
    if not isinstance(values, (str, bytes, Mapping)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a list, got {_echo(values)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run."""

    process: ProcessConfig
    base_seed: int
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    replicates: int = DEFAULT_REPLICATES
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    checks: frozenset[Check] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.process, ProcessConfig):
            raise ValueError("process must be a ProcessConfig")
        base_seed = _integer(self.base_seed, "base_seed", 0, _MASK64)
        object.__setattr__(self, "base_seed", base_seed)
        # The longest length is the stream index of the ensemble's base seed.
        grid = tuple(
            _integer(n, "n_grid entry", 1, _MASK64) for n in _sequence(self.n_grid, "n_grid")
        )
        if not grid:
            raise ValueError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n_grid must be strictly increasing, got {_echo(grid)}")
        model = self.process.model
        if model.max_n is not None and grid[-1] > model.max_n:
            raise ValueError(
                f"n_grid entries must be <= {model.max_n} for {model.name}, "
                f"got {grid[-1]}"
            )
        _require_in_memory(grid[-1], f"n_grid entry {grid[-1]}: one path")
        object.__setattr__(self, "n_grid", grid)
        eps = tuple(
            _number(e, "epsilons entry") for e in _sequence(self.epsilons, "epsilons")
        )
        if not eps or any(not (0 < e < math.inf) for e in eps):
            raise ValueError(f"epsilons must be positive and finite, got {_echo(self.epsilons)}")
        if len(set(eps)) != len(eps):
            raise ValueError(f"epsilons must be distinct, got {_echo(eps)}")
        object.__setattr__(self, "epsilons", eps)
        if self.checks is None:
            checks = default_checks(model)
        else:
            names = _sequence(self.checks, "checks")
            try:
                checks = frozenset(Check(c) for c in names)
            except ValueError as exc:
                valid = [c.value for c in Check]
                raise ValueError(f"checks: {exc}; valid checks: {valid}") from None
        object.__setattr__(self, "checks", checks)
        # A Monte Carlo check needs 100 replicates, an MSE two.
        replicates = _integer(self.replicates, "replicates", 100 if checks else 2)
        # One time average per replicate at every grid length.
        _require_in_memory(
            len(grid) * replicates,
            f"replicates = {replicates}: the time averages at {len(grid)} grid lengths",
        )
        object.__setattr__(self, "replicates", replicates)

    def ordered_checks(self) -> tuple[Check, ...]:
        return tuple(c for c in _CHECK_ORDER if c in self.checks)


@dataclass(frozen=True)
class PerNStats:
    """Exact and empirical convergence quantities at one series length."""

    n: int
    exact_var_an: float
    empirical_mse: float
    mc_standard_error: float
    empirical_tails: dict[float, float]
    chebyshev_bounds: dict[float, float]
    pz_lower: dict[float, float | None]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "exact_var_an": self.exact_var_an,
            "empirical_mse": self.empirical_mse,
            "mc_standard_error": self.mc_standard_error,
            "empirical_tails": {repr(k): v for k, v in self.empirical_tails.items()},
            "chebyshev_bounds": {repr(k): v for k, v in self.chebyshev_bounds.items()},
            "pz_lower": {repr(k): v for k, v in self.pz_lower.items()},
        }


@dataclass(frozen=True)
class ConvergenceReport:
    """Everything an experiment produced, ready for serialization."""

    process: ProcessConfig
    n_grid: tuple[int, ...]
    replicates: int
    base_seed: int
    epsilons: tuple[float, ...]
    checks: tuple[Check, ...]
    per_n: tuple[PerNStats, ...]
    growth: GrowthReport | None
    verdicts: dict[Check, Verdict]

    def all_passed(self) -> bool:
        return all(v.status in ("PASS", "SKIPPED") for v in self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "process": self.process.to_dict(),
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "base_seed": self.base_seed,
            "epsilons": list(self.epsilons),
            "checks": [c.value for c in self.checks],
            "per_n": [p.to_dict() for p in self.per_n],
            "growth": self.growth.to_dict() if self.growth is not None else None,
            "verdicts": {c.value: v.to_dict() for c, v in self.verdicts.items()},
        }


def _ensemble_averages(
    process: ProcessConfig,
    lengths: tuple[int, ...],
    ensemble_base: int,
    replicates: int,
    max_workers: int | None,
) -> np.ndarray:
    """Per-replicate time averages of every prefix length, one row per length.

    Paths are sampled once, at the longest length; row ``k`` holds each
    replicate's average over its first ``lengths[k]`` values, written by
    replicate index.  Each row of a block is summed along its contiguous
    axis, which NumPy does pairwise, one row at a time, exactly as ``np.sum``
    sums that prefix alone.  The sampler is prefix-consistent, so every
    average is bit for bit :func:`~ergodiag.estimators.time_average` of the
    replicate's path sampled at that length.
    """
    out = np.empty((len(lengths), replicates), dtype=float)

    def reduce(first: int, block: np.ndarray) -> None:
        # In the sampling thread: a sum out of the float range is inf, which
        # _require_finite names.
        with np.errstate(over="ignore", invalid="ignore"):
            for row, m in zip(out, lengths):
                row[first : first + len(block)] = block[:, :m].sum(axis=1) / m

    sample_blocks(
        process, lengths[-1], ensemble_base, replicates, reduce, max_workers=max_workers
    )
    return out


def _binom_se(p: float, replicates: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / replicates)


def _growth_grid(n_grid: tuple[int, ...]) -> tuple[int, ...] | None:
    """Refine a grid to >= 4 points for growth classification.

    Exact ``V_n`` costs O(n) for every built-in family (lag or diagonal
    route), so geometric midpoints are inserted until the grid is
    classifiable.  Returns None when the configured grid spans less
    than a decade, where no slope fit is meaningful.
    """
    if len(n_grid) < 1 or n_grid[-1] < 10 * n_grid[0]:
        return None
    pts = sorted(set(n_grid))
    while len(pts) < 4:
        mids = {round(math.sqrt(a * b)) for a, b in zip(pts, pts[1:])}
        merged = sorted(set(pts) | mids)
        if merged == pts:
            return None
        pts = merged
    return tuple(pts)


def _require_finite(n: int, values: dict[str, float]) -> None:
    """Raise OverflowError naming each value at ``n`` outside the float range."""
    bad = [f"{k} = {v!r}" for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise OverflowError(
            f"n={n}: outside the float range: {', '.join(bad)}; scale the process down"
        )


def _growth_for(spec: ProcessSpec, n_grid: tuple[int, ...]) -> GrowthReport | None:
    grid = _growth_grid(n_grid)
    if grid is None:
        return None
    vn_values = [covariance_sum(spec, n) for n in grid]
    for n, vn in zip(grid, vn_values):
        _require_finite(n, {"V_n": vn})
    return classify_growth(list(grid), vn_values)


class _Leg(NamedTuple):
    """A comparison of a sampled statistic with its exact reference; see Checks."""

    stat: float
    ref: float
    se: float
    z: float
    side: str
    fail: str


# Whether a leg fails, from its statistic, its reference and its slack z * se.
_FAILS: dict[str, Callable[[float, float, float], bool]] = {
    "above": lambda stat, ref, slack: stat > ref + slack,
    "below": lambda stat, ref, slack: stat < ref - slack,
    "apart": lambda stat, ref, slack: abs(stat - ref) > slack,
    "no drop": lambda stat, ref, slack: stat >= ref - slack and stat >= _TINY_TAIL,
}


def _judge(legs: list[_Leg], held: Verdict) -> Verdict:
    """The FAIL text of the first leg that fails, else the verdict ``held``."""
    for leg in legs:
        if _FAILS[leg.side](leg.stat, leg.ref, leg.z * leg.se):
            return Verdict("FAIL", leg.fail)
    return held


def _check_variance_identity(report: ConvergenceReport) -> Verdict:
    legs, worst = [], 0.0
    for stats in report.per_n:
        gap = abs(stats.empirical_mse - stats.exact_var_an)
        se = stats.mc_standard_error
        if se == 0.0:
            fail = f"n={stats.n}: gap {gap:.6g} with zero MC error"
        else:
            worst = max(worst, gap / se)
            fail = (f"n={stats.n}: |MSE - exact Var(A_n)| = {gap / se:.2f} MC standard "
                    f"errors exceeds {_Z_DEFAULT:g}")
        legs.append(_Leg(stats.empirical_mse, stats.exact_var_an, se, _Z_DEFAULT,
                         "apart", fail))
    return _judge(legs, Verdict(
        "PASS", f"max deviation {worst:.2f} MC standard errors (<= {_Z_DEFAULT:g})"
    ))


def _check_l2_convergence(report: ConvergenceReport) -> Verdict:
    if len(report.per_n) < 2:
        return Verdict("SKIPPED", "needs at least 2 grid points to see a trend")
    if report.growth is None:
        return Verdict("SKIPPED", "growth unavailable: n_grid spans less than a decade")
    if report.growth.classification is not GrowthClass.SUBQUADRATIC:
        return Verdict(
            "FAIL",
            f"V_n growth classified {report.growth.classification.value} "
            f"(slope {report.growth.fitted_slope:.3f}); mean square convergence "
            "not established",
        )
    exact = [s.exact_var_an for s in report.per_n]
    if any(b >= a for a, b in zip(exact, exact[1:])):
        return Verdict("FAIL", "exact Var(A_n) is not strictly decreasing over n_grid")
    first, last = report.per_n[0], report.per_n[-1]
    se = math.hypot(first.mc_standard_error, last.mc_standard_error)
    leg = _Leg(last.empirical_mse, first.empirical_mse, se, _Z_DEFAULT, "above",
               "empirical MSE did not decrease over n_grid")
    return _judge([leg], Verdict(
        "PASS",
        f"subquadratic growth (slope {report.growth.fitted_slope:.3f}), "
        f"MSE {first.empirical_mse:.3g} -> {last.empirical_mse:.3g}",
    ))


def _check_wlln(report: ConvergenceReport) -> Verdict:
    if len(report.per_n) < 2:
        return Verdict("SKIPPED", "needs at least 2 grid points to see a trend")
    legs = []
    for eps in report.epsilons:
        tails = [s.empirical_tails[eps] for s in report.per_n]
        ses = [_binom_se(t, report.replicates) for t in tails]
        for k in range(len(tails) - 1):
            se = math.hypot(ses[k], ses[k + 1])
            rose = f"eps={eps:g}: tail rose {tails[k]:.4g} -> {tails[k + 1]:.4g}"
            legs.append(_Leg(tails[k + 1], tails[k], se, 2.0, "above", rose))
        se = math.hypot(ses[0], ses[-1])
        flat = f"eps={eps:g}: no net decrease ({tails[0]:.4g} -> {tails[-1]:.4g})"
        legs.append(_Leg(tails[-1], tails[0], se, 2.0, "no drop", flat))
    held = Verdict("PASS", "tail frequencies decrease across n_grid for every eps")
    return _judge(legs, held)


def _check_nonconvergence(report: ConvergenceReport) -> Verdict:
    if Check.NONCONVERGENCE not in report.process.model.checks:
        return Verdict("SKIPPED", "only meaningful for the COMMON_SHOCK family")
    if report.growth is None:
        return Verdict("SKIPPED", "growth unavailable: n_grid spans less than a decade")
    liminf = report.growth.liminf_estimate
    floor = 0.9 * liminf
    legs = [
        _Leg(stats.empirical_mse, floor, 0.0, 0.0, "below",
             f"n={stats.n}: empirical MSE {stats.empirical_mse:.4g} fell below "
             f"0.9 * liminf estimate {liminf:.4g}")
        for stats in report.per_n
    ]
    last = report.per_n[-1]
    valid = [e for e in report.epsilons if e * e < liminf]
    for eps in valid:
        tail, pz = last.empirical_tails[eps], last.pz_lower[eps]
        if pz is not None:
            fail = (f"n={last.n}, eps={eps:g}: tail {tail:.4g} fell below the "
                    f"exact-moment lower bound {pz:.4g}")
            se = _binom_se(tail, report.replicates)
            legs.append(_Leg(tail, pz, se, _Z_DEFAULT, "below", fail))
    held = Verdict("PASS", f"MSE stayed >= {floor:.4g} across n_grid and final tails "
                           "respect the lower bound")
    if not valid:
        # judged after the floor legs, so an MSE below the floor still FAILs
        held = Verdict("SKIPPED",
                       f"no configured eps satisfies eps^2 < liminf ({liminf:.4g})")
    return _judge(legs, held)


def _check_bounds(report: ConvergenceReport) -> Verdict:
    legs = []
    for stats in report.per_n:
        for eps in report.epsilons:
            tail = stats.empirical_tails[eps]
            se = _binom_se(tail, report.replicates)
            at = f"n={stats.n}, eps={eps:g}: tail {tail:.4g}"
            cheb, pz = stats.chebyshev_bounds[eps], stats.pz_lower[eps]
            legs.append(_Leg(tail, cheb, se, _Z_DEFAULT, "above",
                             f"{at} exceeds Chebyshev bound {cheb:.4g}"))
            if pz is not None:
                legs.append(_Leg(tail, pz, se, _Z_DEFAULT, "below",
                                 f"{at} below Paley-Zygmund bound {pz:.4g}"))
    return _judge(legs, Verdict("PASS", "all tails sit inside their bound sandwich"))


_CHECKS: dict[Check, Callable[[ConvergenceReport], Verdict]] = {
    Check.VARIANCE_IDENTITY: _check_variance_identity,
    Check.L2_CONVERGENCE: _check_l2_convergence,
    Check.WLLN: _check_wlln,
    Check.NONCONVERGENCE: _check_nonconvergence,
    Check.BOUNDS: _check_bounds,
}


def run_experiment(
    config: ExperimentConfig, max_workers: int | None = None
) -> ConvergenceReport:
    """Run the configured experiment and verdict every requested check.

    Deterministic given ``(config, base_seed)`` and independent of the
    worker count, which ``max_workers`` caps (default: the engine's choice).
    """
    spec = build_spec(config.process)
    base = derive_stream(config.base_seed, config.n_grid[-1])
    ensemble = _ensemble_averages(
        config.process, config.n_grid, base, config.replicates, max_workers
    )

    per_n = []
    for n, averages in zip(config.n_grid, ensemble):
        # A value out of the float range comes back as inf or NaN, without a
        # numpy warning, for _require_finite to name.
        with np.errstate(over="ignore", invalid="ignore"):
            m_n = mean_average(spec, n)
            mse = ensemble_mse(averages, m_n)
            exact_var = time_average_variance(spec, n)
            sd_sq = config.process.model.squared_deviation_sd(n, exact_var)
            var_sq = sd_sq * sd_sq
        moments = {"m_n": m_n, "Var(A_n)": exact_var, "Var((A_n - m_n)^2)": var_sq,
                   "empirical MSE": mse}
        _require_finite(n, moments)
        se = sd_sq / math.sqrt(config.replicates)  # MC in the Checks table

        tails: dict[float, float] = {}
        chebs: dict[float, float] = {}
        pzs: dict[float, float | None] = {}
        for eps in config.epsilons:
            tails[eps] = empirical_tail(averages, m_n, eps)
            chebs[eps] = chebyshev_bound(exact_var, eps)
            eps_sq = eps * eps
            pzs[eps] = (
                paley_zygmund_lower(exact_var, var_sq, eps_sq)
                if eps_sq <= exact_var
                else None
            )

        per_n.append(
            PerNStats(
                n=n,
                exact_var_an=exact_var,
                empirical_mse=mse,
                mc_standard_error=se,
                empirical_tails=tails,
                chebyshev_bounds=chebs,
                pz_lower=pzs,
            )
        )

    report = ConvergenceReport(
        process=config.process,
        n_grid=config.n_grid,
        replicates=config.replicates,
        base_seed=config.base_seed,
        epsilons=config.epsilons,
        checks=config.ordered_checks(),
        per_n=tuple(per_n),
        growth=_growth_for(spec, config.n_grid),
        verdicts={},
    )
    # Each check reads the report alone, so a verdict follows from report.json.
    return replace(report, verdicts={c: _CHECKS[c](report) for c in report.checks})

