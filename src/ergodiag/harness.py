"""Monte Carlo experiments that verify the convergence theory numerically.

:func:`run_experiment` samples replicate ensembles of a configured process
over a grid of series lengths and, for each length, compares the empirical
mean squared error of the time average against the exact ``V_n / n^2``,
tabulates tail frequencies against Chebyshev upper and Paley-Zygmund lower
bounds, classifies the exact growth of ``V_n``, and issues a PASS / FAIL /
SKIPPED verdict per requested check.  Pass thresholds are expressed in Monte
Carlo standard errors (default 4), so they scale with the replicate budget.
The two things it takes from a family, the exact ``Var((A_n - m_n)^2)``
behind the Paley-Zygmund bounds and the default checks, come from the
family's definition in :mod:`ergodiag.processes`.

Checks
------
``VARIANCE_IDENTITY``
    Empirical MSE matches exact ``Var(A_n)`` at every grid point.
``L2_CONVERGENCE``
    ``V_n`` growth is sub-quadratic and both the exact and empirical MSE
    shrink across the grid.
``WLLN``
    Tail frequencies ``P(|A_n - m_n| >= eps)`` decrease across the grid for
    every configured eps.
``NONCONVERGENCE``
    Common-shock only: the MSE stays bounded away from zero and the final
    tail frequency respects the Paley-Zygmund lower bound computed from
    exact moments.
``BOUNDS``
    Every tail frequency sits below its Chebyshev bound and above its
    Paley-Zygmund bound (where applicable), within Monte Carlo noise.
``FOURTH_MOMENT``
    Sparse-spike only: tails keep shrinking while the exact variance does
    not -- convergence in probability without mean square convergence.  The
    closed-form ``Var(A_n^2)`` behind it depends on no run, so the tests,
    not the check, pin it against exhaustive enumeration and check that
    ``Var(A_n^2) / Var(A_n)^2`` diverges.
``VECTOR``
    The mean squared Euclidean gap of a 3-coordinate process with
    independent copies per coordinate matches the sum of per-coordinate
    exact variances.

Seed discipline
---------------
All sampling derives from ``base_seed`` through the stream derivation of
:mod:`ergodiag.processes`: grid point ``n`` uses the per-length base
``derive_stream(base_seed, n)``, replicate ``r`` of that ensemble uses
stream index ``r``, and coordinate ``j`` of the vector check uses the
per-length base at index ``2**32 + j``.  Replicates are sampled by
:func:`~ergodiag.processes.sample_blocks` in blocks sized by element count
(at most 65 536 values, so short paths share each NumPy call), in work
units of 1024 replicates spread over the workers, and each block is reduced
to its rows' time averages, written by replicate index.  Each row's total is
NumPy's pairwise sum of that row, the sum
:func:`~ergodiag.estimators.time_average` takes of a path, so no average
depends on which rows share a block.  The engine picks the worker count
from the usable CPUs and the path length: threads from
n = 1000, where two of them measured faster than one, and one thread below
(``max_workers`` overrides it).  No result depends on the block size or the
worker count, so reports are identical for any worker count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .bounds import chebyshev_bound, paley_zygmund_lower
from .estimators import empirical_tail, ensemble_mse, time_average
from .model import (
    GrowthClass,
    GrowthReport,
    ProcessSpec,
    classify_growth,
    covariance_sum,
    mean_average,
    time_average_variance,
)
from .processes import (
    _FAMILIES,
    Family,
    ProcessConfig,
    _require_in_memory,
    build_spec,
    derive_stream,
    enumerate_squared_average_variance,
    sample_blocks,
    sample_path,
    sparse_spike_squared_average_variance,
    worker_count,
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
    "verify_variance_identity",
    "default_checks",
    "worker_count",
    "DEFAULT_N_GRID",
    "DEFAULT_EPSILONS",
    "DEFAULT_REPLICATES",
]

DEFAULT_N_GRID = (100, 1000, 10_000)
DEFAULT_EPSILONS = (0.1, 0.05, 0.01)
DEFAULT_REPLICATES = 10_000

_Z_DEFAULT = 4.0
_VECTOR_DIM = 3
_VECTOR_STREAM_OFFSET = 1 << 32
# Tail frequencies below this are treated as "already converged" when judging
# whether a tail sequence decreased; below it a further decrease is noise.
_TINY_TAIL = 0.02


class Check(str, Enum):
    """Verifiable consequences of the convergence theory."""

    VARIANCE_IDENTITY = "VARIANCE_IDENTITY"
    L2_CONVERGENCE = "L2_CONVERGENCE"
    WLLN = "WLLN"
    NONCONVERGENCE = "NONCONVERGENCE"
    BOUNDS = "BOUNDS"
    FOURTH_MOMENT = "FOURTH_MOMENT"
    VECTOR = "VECTOR"


_CHECK_ORDER = tuple(Check)


@dataclass(frozen=True)
class Verdict:
    status: str  # "PASS" | "FAIL" | "SKIPPED"
    message: str = ""

    def to_dict(self) -> dict:
        return {"status": self.status, "message": self.message}


def default_checks(family: Family) -> frozenset[Check]:
    """Checks that are meaningful for a family (those it should pass)."""
    return frozenset(Check(name) for name in _FAMILIES[family].checks)


def _sequence(values: object, name: str) -> tuple:
    # A string or a mapping iterates over its characters or keys, not over
    # entries, so neither is taken for a list.
    if not isinstance(values, (str, bytes, Mapping)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a list, got {values!r}")


def _integer(value: object, name: str) -> int:
    # bool is an int subclass, but true is not a count or a seed.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


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
        base_seed = _integer(self.base_seed, "base_seed")
        if not 0 <= base_seed < 1 << 64:
            raise ValueError(
                f"base_seed must be an unsigned 64-bit integer, got {self.base_seed}"
            )
        object.__setattr__(self, "base_seed", base_seed)
        grid = tuple(
            _integer(n, "n_grid entry") for n in _sequence(self.n_grid, "n_grid")
        )
        if not grid:
            raise ValueError("n_grid must be nonempty")
        if grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n_grid must be strictly increasing and >= 1, got {grid}")
        if grid[-1] >= 1 << 64:
            raise ValueError(f"n_grid entries must be < 2**64, got {grid[-1]}")
        max_n = _FAMILIES[self.process.family].max_n
        if max_n is not None and grid[-1] > max_n:
            raise ValueError(
                f"n_grid entries must be <= {max_n} for {self.process.family.value}, "
                f"got {grid[-1]}"
            )
        _require_in_memory(grid[-1], f"n_grid entry {grid[-1]}: one path")
        object.__setattr__(self, "n_grid", grid)
        eps = tuple(
            _number(e, "epsilons entry") for e in _sequence(self.epsilons, "epsilons")
        )
        if not eps or any(not (0 < e < math.inf) for e in eps):
            raise ValueError(f"epsilons must be positive and finite, got {self.epsilons}")
        if len(set(eps)) != len(eps):
            raise ValueError(f"epsilons must be distinct, got {eps}")
        object.__setattr__(self, "epsilons", eps)
        if self.checks is None:
            checks = default_checks(self.process.family)
        else:
            names = _sequence(self.checks, "checks")
            try:
                checks = frozenset(Check(c) for c in names)
            except ValueError as exc:
                valid = [c.value for c in Check]
                raise ValueError(f"checks: {exc}; valid checks: {valid}") from None
        object.__setattr__(self, "checks", checks)
        replicates = _integer(self.replicates, "replicates")
        minimum = 100 if checks else 2
        if replicates < minimum:
            raise ValueError(
                f"replicates must be >= {minimum} for a Monte Carlo run, got {replicates}"
            )
        _require_in_memory(replicates, f"replicates = {replicates}: the time averages")
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
    n: int,
    ensemble_base: int,
    replicates: int,
    max_workers: int | None,
) -> np.ndarray:
    """Per-replicate time averages, written by replicate index.

    Each row of a block is summed along its contiguous axis, which NumPy
    does pairwise, one row at a time, exactly as ``np.sum`` sums that row
    alone, so every average is bit for bit
    :func:`~ergodiag.estimators.time_average` of the replicate's path.
    """
    out = np.empty(replicates, dtype=float)

    def reduce(first: int, block: np.ndarray) -> None:
        # In the sampling thread: a sum out of the float range is inf, which
        # _require_finite names.
        with np.errstate(over="ignore", invalid="ignore"):
            out[first : first + len(block)] = block.sum(axis=1) / n

    sample_blocks(process, n, ensemble_base, replicates, reduce, max_workers=max_workers)
    return out


def _binom_se(p: float, replicates: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / replicates)


def _mc_standard_error(samples: np.ndarray) -> float:
    """Plug-in Monte Carlo standard error of the mean of ``samples``."""
    return float(np.std(samples, ddof=1)) / math.sqrt(len(samples))


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


@dataclass
class _RunData:
    """Per-grid-point raw material the checks consume."""

    config: ExperimentConfig
    spec: ProcessSpec
    max_workers: int | None = None
    per_n: list[PerNStats] = field(default_factory=list)
    averages: list[np.ndarray] = field(default_factory=list)
    means: list[float] = field(default_factory=list)
    growth: GrowthReport | None = None


def _check_variance_identity(data: _RunData) -> Verdict:
    worst = 0.0
    for stats in data.per_n:
        gap = abs(stats.empirical_mse - stats.exact_var_an)
        se = stats.mc_standard_error
        if se == 0.0:
            if gap > 0.0:
                return Verdict("FAIL", f"n={stats.n}: gap {gap:.6g} with zero MC error")
            continue
        worst = max(worst, gap / se)
        if gap > _Z_DEFAULT * se:
            return Verdict(
                "FAIL",
                f"n={stats.n}: |MSE - exact Var(A_n)| = {gap / se:.2f} MC standard "
                f"errors exceeds {_Z_DEFAULT:g}",
            )
    return Verdict(
        "PASS", f"max deviation {worst:.2f} MC standard errors (<= {_Z_DEFAULT:g})"
    )


def _check_l2_convergence(data: _RunData) -> Verdict:
    if len(data.per_n) < 2:
        return Verdict("SKIPPED", "needs at least 2 grid points to see a trend")
    if data.growth is None:
        return Verdict("SKIPPED", "growth unavailable: n_grid spans less than a decade")
    if data.growth.classification is not GrowthClass.SUBQUADRATIC:
        return Verdict(
            "FAIL",
            f"V_n growth classified {data.growth.classification.value} "
            f"(slope {data.growth.fitted_slope:.3f}); mean square convergence "
            "not established",
        )
    exact = [s.exact_var_an for s in data.per_n]
    if any(b >= a for a, b in zip(exact, exact[1:])):
        return Verdict("FAIL", "exact Var(A_n) is not strictly decreasing over n_grid")
    first, last = data.per_n[0], data.per_n[-1]
    slack = _Z_DEFAULT * math.hypot(first.mc_standard_error, last.mc_standard_error)
    if last.empirical_mse > first.empirical_mse + slack:
        return Verdict("FAIL", "empirical MSE did not decrease over n_grid")
    return Verdict(
        "PASS",
        f"subquadratic growth (slope {data.growth.fitted_slope:.3f}), "
        f"MSE {first.empirical_mse:.3g} -> {last.empirical_mse:.3g}",
    )


def _tail_trend_ok(tails: list[float], replicates: int) -> tuple[bool, str]:
    """Decreasing within 2 binomial standard errors, with a real net drop."""
    ses = [_binom_se(t, replicates) for t in tails]
    for k in range(len(tails) - 1):
        slack = 2.0 * math.hypot(ses[k], ses[k + 1])
        if tails[k + 1] > tails[k] + slack:
            return False, f"tail rose {tails[k]:.4g} -> {tails[k + 1]:.4g}"
    net_slack = 2.0 * math.hypot(ses[0], ses[-1])
    if tails[-1] > tails[0] - net_slack and tails[-1] >= _TINY_TAIL:
        return False, f"no net decrease ({tails[0]:.4g} -> {tails[-1]:.4g})"
    return True, ""


def _check_wlln(data: _RunData) -> Verdict:
    if len(data.per_n) < 2:
        return Verdict("SKIPPED", "needs at least 2 grid points to see a trend")
    replicates = data.config.replicates
    for eps in data.config.epsilons:
        tails = [s.empirical_tails[eps] for s in data.per_n]
        ok, why = _tail_trend_ok(tails, replicates)
        if not ok:
            return Verdict("FAIL", f"eps={eps:g}: {why}")
    return Verdict("PASS", "tail frequencies decrease across n_grid for every eps")


def _check_nonconvergence(data: _RunData) -> Verdict:
    if data.config.process.family is not Family.COMMON_SHOCK:
        return Verdict("SKIPPED", "only meaningful for the COMMON_SHOCK family")
    if data.growth is None:
        return Verdict("SKIPPED", "growth unavailable: n_grid spans less than a decade")
    liminf = data.growth.liminf_estimate
    floor = 0.9 * liminf
    for stats in data.per_n:
        if stats.empirical_mse < floor:
            return Verdict(
                "FAIL",
                f"n={stats.n}: empirical MSE {stats.empirical_mse:.4g} fell below "
                f"0.9 * liminf estimate {liminf:.4g}",
            )
    last = data.per_n[-1]
    valid = [e for e in data.config.epsilons if e * e < liminf]
    if not valid:
        return Verdict(
            "SKIPPED", f"no configured eps satisfies eps^2 < liminf ({liminf:.4g})"
        )
    replicates = data.config.replicates
    for eps in valid:
        tail = last.empirical_tails[eps]
        pz = last.pz_lower[eps]
        if pz is None:
            continue
        if tail < pz - _Z_DEFAULT * _binom_se(tail, replicates):
            return Verdict(
                "FAIL",
                f"n={last.n}, eps={eps:g}: tail {tail:.4g} fell below the exact-moment "
                f"lower bound {pz:.4g}",
            )
    return Verdict(
        "PASS",
        f"MSE stayed >= {floor:.4g} across n_grid and final tails respect the "
        "lower bound",
    )


def _check_bounds(data: _RunData) -> Verdict:
    replicates = data.config.replicates
    for stats in data.per_n:
        for eps in data.config.epsilons:
            tail = stats.empirical_tails[eps]
            se = _binom_se(tail, replicates)
            cheb = stats.chebyshev_bounds[eps]
            if tail > cheb + _Z_DEFAULT * se:
                return Verdict(
                    "FAIL",
                    f"n={stats.n}, eps={eps:g}: tail {tail:.4g} exceeds Chebyshev "
                    f"bound {cheb:.4g}",
                )
            pz = stats.pz_lower[eps]
            if pz is not None and tail < pz - _Z_DEFAULT * se:
                return Verdict(
                    "FAIL",
                    f"n={stats.n}, eps={eps:g}: tail {tail:.4g} below Paley-Zygmund "
                    f"bound {pz:.4g}",
                )
    return Verdict("PASS", "all tails sit inside their bound sandwich")


def _check_fourth_moment(data: _RunData) -> Verdict:
    if data.config.process.family is not Family.SPARSE_SPIKES:
        return Verdict("SKIPPED", "only meaningful for the SPARSE_SPIKES family")
    if len(data.per_n) < 2:
        return Verdict("SKIPPED", "needs at least 2 grid points to see a trend")

    eps = 0.1
    tails = [empirical_tail(a, m, eps) for a, m in zip(data.averages, data.means)]
    ok, why = _tail_trend_ok(tails, data.config.replicates)
    if not ok:
        return Verdict("FAIL", f"eps={eps:g}: {why}")

    exact = [s.exact_var_an for s in data.per_n]
    if any(b >= a for a, b in zip(exact, exact[1:])):
        return Verdict("FAIL", "exact Var(A_n) is not decreasing toward its limit")
    if not 0.45 <= exact[-1] <= 0.55:
        return Verdict(
            "FAIL", f"exact Var(A_n) = {exact[-1]:.4g} at n={data.per_n[-1].n}, "
            "expected near 0.5"
        )
    return Verdict(
        "PASS",
        f"tails shrink ({tails[0]:.4g} -> {tails[-1]:.4g}) while Var(A_n) stays "
        f"near {exact[-1]:.4g}",
    )


def _check_vector(data: _RunData) -> Verdict:
    config = data.config
    n = config.n_grid[-1]
    base_n = derive_stream(config.base_seed, n)
    m_n = data.means[-1]
    exact_var = data.per_n[-1].exact_var_an

    gap_sq = np.zeros(config.replicates, dtype=float)
    for j in range(_VECTOR_DIM):
        coord_base = derive_stream(base_n, _VECTOR_STREAM_OFFSET + j)
        a = _ensemble_averages(
            config.process, n, coord_base, config.replicates, data.max_workers
        )
        gap_sq += (a - m_n) ** 2

    mse = float(np.mean(gap_sq))
    se = _mc_standard_error(gap_sq)
    target = _VECTOR_DIM * exact_var
    gap = abs(mse - target)
    if se > 0 and gap > _Z_DEFAULT * se:
        return Verdict(
            "FAIL",
            f"n={n}: squared-gap mean {mse:.4g} vs {target:.4g} expected "
            f"({gap / se:.2f} MC standard errors)",
        )
    return Verdict(
        "PASS",
        f"n={n}: squared Euclidean gap {mse:.4g} matches sum of coordinate "
        f"variances {target:.4g}",
    )


_CHECKS: dict[Check, Callable[[_RunData], Verdict]] = {
    Check.VARIANCE_IDENTITY: _check_variance_identity,
    Check.L2_CONVERGENCE: _check_l2_convergence,
    Check.WLLN: _check_wlln,
    Check.NONCONVERGENCE: _check_nonconvergence,
    Check.BOUNDS: _check_bounds,
    Check.FOURTH_MOMENT: _check_fourth_moment,
    Check.VECTOR: _check_vector,
}


def _sample_point(
    config: ExperimentConfig, spec: ProcessSpec, n: int, workers: int | None
) -> tuple[np.ndarray, float, float, float, float]:
    """Sampled and exact statistics at one grid length.

    Returns the per-replicate averages, ``m_n``, the empirical MSE of the
    averages around ``m_n``, its plug-in Monte Carlo standard error, and
    the exact ``Var(A_n)`` from ``spec``.  A value out of the float range
    comes back as inf or NaN, without a numpy warning, for
    :func:`_require_finite` to name.
    """
    base_n = derive_stream(config.base_seed, n)
    averages = _ensemble_averages(config.process, n, base_n, config.replicates, workers)
    with np.errstate(over="ignore", invalid="ignore"):
        m_n = mean_average(spec, n)
        mse = ensemble_mse(averages, m_n)
        se = _mc_standard_error((averages - m_n) ** 2)
        return averages, m_n, mse, se, time_average_variance(spec, n)


def run_experiment(
    config: ExperimentConfig, max_workers: int | None = None
) -> ConvergenceReport:
    """Run the configured experiment and verdict every requested check.

    Deterministic given ``(config, base_seed)`` and independent of the
    worker count, which ``max_workers`` caps (default: the engine's choice).
    """
    spec = build_spec(config.process)
    definition = _FAMILIES[config.process.family]
    data = _RunData(config=config, spec=spec, max_workers=max_workers)

    for n in config.n_grid:
        averages, m_n, mse, se, exact_var = _sample_point(config, spec, n, max_workers)
        var_sq = definition.squared_deviation_variance(n, exact_var)
        moments = {"m_n": m_n, "Var(A_n)": exact_var, "Var((A_n - m_n)^2)": var_sq,
                   "empirical MSE": mse, "MC standard error": se}
        _require_finite(n, moments)

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

        data.per_n.append(
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
        data.averages.append(averages)
        data.means.append(m_n)

    data.growth = _growth_for(spec, config.n_grid)

    verdicts = {check: _CHECKS[check](data) for check in config.ordered_checks()}

    return ConvergenceReport(
        process=config.process,
        n_grid=config.n_grid,
        replicates=config.replicates,
        base_seed=config.base_seed,
        epsilons=config.epsilons,
        checks=config.ordered_checks(),
        per_n=tuple(data.per_n),
        growth=data.growth,
        verdicts=verdicts,
    )


def verify_variance_identity(
    config: ExperimentConfig, n: int, spec: ProcessSpec | None = None
) -> Verdict:
    """Check ``E[(A_n - m_n)^2] == Var(A_n) == V_n / n^2`` at one length.

    Samples ``config.replicates`` paths (at least 1000) and compares the
    empirical MSE against the exact variance from ``spec`` (defaults to the
    exact spec of the configured family; pass a deliberately wrong spec to
    confirm the check can fail).  It fails beyond 4 MC standard errors.
    """
    if config.replicates < 1000:
        raise ValueError(
            f"replicates must be >= 1000 for this check, got {config.replicates}"
        )
    if spec is None:
        spec = build_spec(config.process)
    _, _, mse, se, exact = _sample_point(config, spec, n, None)
    gap = abs(mse - exact)
    if se == 0.0:
        status = "PASS" if gap == 0.0 else "FAIL"
        return Verdict(status, f"n={n}: gap {gap:.6g} with zero MC error")
    if gap > _Z_DEFAULT * se:
        return Verdict(
            "FAIL",
            f"n={n}: |MSE - exact| = {gap / se:.2f} MC standard errors "
            f"(exact {exact:.6g}, MSE {mse:.6g})",
        )
    return Verdict(
        "PASS", f"n={n}: |MSE - exact| = {gap / se:.2f} MC standard errors"
    )
