"""Sweep orchestration: lifespan scaling, bound checks, convergence.

An eps-sweep runs the solver across a geometric grid of data sizes,
detects the blow-up time for each, and fits log T_num against log eps by
unweighted least squares; the fitted slope is compared with the
theoretical lifespan exponent (slope ~ -alpha).  Per-eps runs are
independent tasks, taken longest first by the calling process and forked
workers; results are keyed by (eps, level), so no lane changes the output.
"""

from __future__ import annotations

import dataclasses
import math
import os
import queue
from dataclasses import dataclass

import numpy as np

from .bound_engine import LifespanBound
from .exponents import ModelParams, lifespan_exponent
from .solver import Form, GridSpec, run

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "BoundCheckRow",
    "BoundCheckReport",
    "ConvergenceReport",
    "fit_power_law",
    "sweep",
    "check_upper_bound",
    "convergence_study",
]


@dataclass(frozen=True)
class SweepSpec:
    """Sweep definition: base parameters (eps field ignored), strictly
    increasing eps grid (>= 4 points), grid, and the number of mesh
    refinement levels used to estimate T_num stability."""

    params_base: ModelParams
    eps_values: tuple[float, ...]
    grid: GridSpec
    refinement_levels: int = 2
    form: Form = Form.U

    def __post_init__(self) -> None:
        eps = tuple(float(e) for e in self.eps_values)
        object.__setattr__(self, "eps_values", eps)
        if len(eps) < 4:
            raise ValueError(f"need at least 4 eps values, got {len(eps)}")
        if any(not e > 0 for e in eps):
            raise ValueError("eps values must be positive")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps values must be strictly increasing")
        if self.refinement_levels < 1:
            raise ValueError("refinement_levels must be >= 1")


@dataclass(frozen=True)
class SweepPoint:
    eps: float
    T_num: float | None
    refinement_agreement: float | None


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    slope: float
    intercept: float
    r_squared: float
    alpha_theory: float
    survived_eps: tuple[float, ...]
    note: str = ""


def fit_power_law(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares on (log x, log y): returns (slope, intercept, r^2)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least 2 points to fit")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot  # constant data: the fit is that constant
    return float(slope), float(intercept), r2


def _sweep_task(task: tuple[Form, ModelParams, GridSpec]) -> float | None:
    return run(*task, collect_history=False).T_num


def sweep(spec: SweepSpec, jobs: int | None = None) -> SweepResult:
    """Run the solver per eps (and per refinement level), then fit the
    power law over (eps, T_num).

    T_num is taken from the finest level; refinement_agreement is the
    relative change between the two finest levels.  Any eps that survives
    t_max at any level leaves the result incomplete and flagged.  `jobs`
    lanes run the solves: this process and jobs - 1 forked workers, each fed
    by a relay thread that only waits (None: a lane per usable CPU; 1 or less: no
    worker, no thread).  Lanes are not threads: a leapfrog step makes about
    11 numpy calls, and threads hand the interpreter lock back and forth
    around each one (criterion-7 sweep, 2-vCPU Xeon: two threads took 1.6x
    the wall time of two processes).
    """
    base = spec.params_base
    alpha = lifespan_exponent(base)  # raises HypothesisError outside the blow-up range

    # longest first (finest level, then ascending eps) so no lane idles at the end
    todo = queue.SimpleQueue()
    for level in reversed(range(spec.refinement_levels)):
        grid = spec.grid.refined(2**level)
        for i, eps in enumerate(spec.eps_values):
            todo.put(((i, level), (spec.form, dataclasses.replace(base, eps=eps), grid)))
    if jobs is None:  # the usable CPUs; some platforms lack os.sched_getaffinity
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    forks = max(0, min(jobs, spec.refinement_levels * len(spec.eps_values)) - 1)  # this process is a lane too
    for _ in range(forks + 1):
        todo.put(None)  # one end mark per lane, after every task

    def lane(solve) -> list:
        return [(key, solve(task)) for key, task in iter(todo.get, None)]

    if not forks:
        results = dict(lane(_sweep_task))
    else:
        import multiprocessing  # loaded only by a sweep that forks
        from concurrent.futures import ThreadPoolExecutor
        before = multiprocessing.active_children()
        # the pool forks all its workers in its constructor, before any relay thread starts
        with multiprocessing.Pool(forks) as pool, ThreadPoolExecutor(forks) as relays:
            workers = [w for w in multiprocessing.active_children() if w not in before]

            def relay(task):  # a worker that died never replies: stop waiting then
                reply = pool.apply_async(_sweep_task, (task,))
                while not reply.ready():
                    if not all(w.is_alive() for w in workers):
                        raise RuntimeError("a sweep worker process died")
                    reply.wait(0.1)
                return reply.get()

            relayed = [relays.submit(lane, relay) for _ in range(forks)]
            results = dict(lane(_sweep_task))
            for future in relayed:
                results.update(future.result())

    points = []
    for i, eps in enumerate(spec.eps_values):
        levels = [results[(i, level)] for level in range(spec.refinement_levels)]
        T_fine = None if None in levels else levels[-1]  # None: survived t_max at some level
        agreement = abs(T_fine - levels[-2]) / T_fine if T_fine is not None and len(levels) >= 2 else None
        points.append(SweepPoint(eps=eps, T_num=T_fine, refinement_agreement=agreement))

    survived = tuple(pt.eps for pt in points if pt.T_num is None)
    slope = intercept = r2 = math.nan
    if not survived:
        slope, intercept, r2 = fit_power_law(np.array([pt.eps for pt in points]), np.array([pt.T_num for pt in points]))
    return SweepResult(
        points=tuple(points),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        alpha_theory=alpha,
        survived_eps=survived,
        note="increase t_max or eps: some runs survived the time window" if survived else "",
    )


@dataclass(frozen=True)
class BoundCheckRow:
    eps: float
    T_num: float | None
    T_upper: float
    ok: bool
    vacuous: bool


@dataclass(frozen=True)
class BoundCheckReport:
    """Per-eps comparison T_num <= T_upper.  All rows are conditional on
    the configured delta_m (the bound engine does not derive it)."""

    rows: tuple[BoundCheckRow, ...]
    delta_m: float
    conditional: bool
    all_ok: bool
    note: str = ""


def check_upper_bound(spec: SweepSpec, sweep_result: SweepResult, bounds: tuple[LifespanBound, ...], delta_m: float) -> BoundCheckReport:
    """Assert T_num <= T_upper for every eps of `sweep_result`, the result
    of `sweep(spec)`, with T_upper from `bounds`: the lifespan bound at
    spec's parameters under `delta_m` for each eps, in eps order.  A bound
    below the first time step is flagged vacuous (unresolvable at this
    resolution) but still compared.
    """
    rows = []
    for pt, T_upper in zip(sweep_result.points, (bound.T_upper for bound in bounds), strict=True):
        ok = pt.T_num is not None and pt.T_num <= T_upper
        rows.append(BoundCheckRow(eps=pt.eps, T_num=pt.T_num, T_upper=T_upper, ok=ok, vacuous=T_upper < spec.grid.dt))
    note = "bound vacuous at this resolution for some eps" if any(r.vacuous for r in rows) else ""
    return BoundCheckReport(
        rows=tuple(rows), delta_m=delta_m, conditional=True, all_ok=all(r.ok for r in rows), note=note
    )


@dataclass(frozen=True)
class ConvergenceReport:
    dr_values: tuple[float, ...]
    compare_time: float
    profile_errors: tuple[float, ...]
    profile_orders: tuple[float, ...]
    T_nums: tuple[float | None, ...]
    T_order: float | None
    T_agreement: float | None
    passed: bool


def convergence_study(
    params: ModelParams,
    grid: GridSpec,
    levels: int,
    form: Form = Form.U,
    compare_time: float | None = None,
) -> ConvergenceReport:
    """Halve (dr, dt) per level and measure the observed order.

    Profiles at a common comparison time (snapped to a multiple of the
    coarsest dt so every level lands on it exactly) are differenced on
    shared nodes in the radially weighted L2 norm
    (dr sum r^(n-1) du^2)^(1/2); successive error ratios give the
    Richardson order.  Passes when every profile order lies in
    [1.5, 2.5].  Blowing up before the comparison time is an error asking
    for a smaller compare_time.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    dt0 = grid.dt
    t_c = 0.5 * grid.t_max if compare_time is None else compare_time
    if not math.isfinite(t_c):
        raise ValueError(f"compare_time must be finite, got {t_c}")
    if not t_c > 0:
        raise ValueError(f"compare_time must be > 0, got {t_c}")
    n0 = max(1, int(round(t_c / dt0)))
    t_c = n0 * dt0
    if t_c > grid.t_max:
        raise ValueError("compare_time exceeds t_max")

    runs = []
    for level in range(levels):
        g = grid.refined(2**level)
        res = run(form, params, g, snapshot_times=[t_c], collect_history=False)
        if not res.snapshots:
            raise ValueError(
                f"blow-up at t = {res.T_num} before the comparison time {t_c} at level {level}; "
                "choose a smaller compare_time"
            )
        runs.append(res)

    # restrict to nodes of the coarsest grid, causal at t_c
    base_nodes = runs[0].snapshots[0].u.size
    profiles = []
    for level, res in enumerate(runs):
        stride = 2**level
        profiles.append(res.snapshots[0].u[: (base_nodes - 1) * stride + 1 : stride])

    weights = grid.dr * runs[0].snapshots[0].r[:base_nodes] ** (params.n - 1.0)
    errors = []
    for a, b in zip(profiles, profiles[1:]):
        errors.append(float(math.sqrt(np.sum(weights * (a - b) ** 2))))
    orders = []
    for e0, e1 in zip(errors, errors[1:]):
        orders.append(math.log2(e0 / e1) if e1 > 0 else math.inf)

    T_nums = tuple(res.T_num for res in runs)
    T_order = None
    T_agreement = None
    if None not in T_nums:
        d1 = abs(T_nums[-2] - T_nums[-3])
        d2 = abs(T_nums[-1] - T_nums[-2])
        if d1 and d2 > 0:
            T_order = math.log2(d1 / d2)
        T_agreement = d2 / T_nums[-1]

    passed = all(1.5 <= o <= 2.5 for o in orders)
    return ConvergenceReport(
        dr_values=tuple(grid.dr / 2**level for level in range(levels)),
        compare_time=t_c,
        profile_errors=tuple(errors),
        profile_orders=tuple(orders),
        T_nums=T_nums,
        T_order=T_order,
        T_agreement=T_agreement,
        passed=passed,
    )
