"""Sweep orchestration: lifespan scaling, bound checks, convergence.

An eps-sweep runs the solver across a geometric grid of data sizes,
detects the blow-up time for each, and fits log T_num against log eps by
unweighted least squares; the fitted slope is compared with the
theoretical lifespan exponent (slope ~ -alpha).  In `sweep`, this
process and forked workers, which answer over pipes, take the eps chains
longest first; no lane changes a T_num, and a failure in any ends the
sweep.  The bound check matches bounds to points by eps.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .bound_engine import LifespanBound
from .exponents import ModelParams, lifespan_exponent
from .solver import ConfigurationError, Form, GridSpec, causal_node_count, run

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


# a cut level stops at 1.01 T, T of the solve before: T_num falls as dr
# halves (criterion 7: by 0.01-0.13 %), and a later one costs a fallback
T_MARGIN = 1.01
# radius kept around the origin at the cut t_max (criterion 7: 100 and 200
# cells), so that a peak at the origin lies R_OBS/2 inside the kept region
R_OBS = 5.0


def _sweep_chain(task: tuple[Form, ModelParams, GridSpec, int]) -> list[float | None]:
    """T_num of each refinement level of one eps; see `sweep`."""
    form, params, grid, levels = task
    try:
        prev = run(form, params, dataclasses.replace(grid, dr=2.0 * grid.dr), collect_history=False)
    except ConfigurationError:  # a dt-dependent limit (the mass term) may reject 2 dr alone: no pilot
        prev = None
    Ts = []
    for level in range(levels):
        full, res = grid.refined(2**level), None
        if prev is not None and prev.T_num is not None and prev.r_star <= R_OBS / 2:  # the solve before blew up at the origin
            t_max = min(T_MARGIN * prev.T_num, full.t_max)
            cut = dataclasses.replace(full, t_max=t_max, r_max=min(t_max / full.cfl + R_OBS, full.r_max))
            res = run(form, params, cut, collect_history=False)
            if cut != full and (res.T_num is None or res.r_star > (causal_node_count(cut, res.t_end) - 1) * cut.dr - R_OBS / 2):
                res = None  # survived t_max', or peaked within R_OBS/2 of the last node of the region it kept
        prev = res or run(form, params, full, collect_history=False)
        Ts.append(prev.T_num)
    return Ts


def sweep(spec: SweepSpec, jobs: int | None = None) -> SweepResult:
    """Run a chain of solves per eps, then fit the power law over (eps, T_num).

    T_num is taken from the finest level; refinement_agreement is the
    relative change between the two finest levels.  Any eps that survives
    t_max at any level leaves the result incomplete and flagged.  A chain
    is a pilot on spec.grid with 2 dr, then each level, cut to t_max' =
    min(T_MARGIN T, t_max) and r_max' = min(t_max'/cfl + R_OBS, r_max) if
    the solve before blew up at T with r_star <= R_OBS/2.  A pilot that
    `run` rejects with a ConfigurationError is skipped: only a limit on dt
    (the mass term) can reject 2 dr alone, and level 0 then runs on its
    full grid, as after a pilot that survives.  Causal values do
    not depend on the domain size, so a cut run is the level's run while the
    largest |u| lies in the region it keeps; it falls back to the full level
    grid if it survives t_max' or its r_star lies within R_OBS/2 of the edge
    of that region at its stop: a peak the cut leaves out puts r_star there,
    unless a lower peak inside still tops the values at the edge.

    `jobs` lanes run the chains, longest (smallest eps) first: this process
    and jobs - 1 workers forked before its lane starts (None: a lane per
    usable CPU; 1 or less: no worker), and no thread.  Each worker answers
    over its own pipe, where its exit without an answer shows at once; a
    failure in any lane ends the sweep.  Lanes are not threads: a leapfrog step makes about 11
    numpy calls, and threads hand the interpreter lock back and forth around
    each one.
    """
    base = spec.params_base
    alpha = lifespan_exponent(base)  # raises HypothesisError outside the blow-up range

    tasks = [(spec.form, dataclasses.replace(base, eps=eps), spec.grid, spec.refinement_levels) for eps in spec.eps_values]
    if jobs is None:  # the usable CPUs; some platforms lack os.sched_getaffinity
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    import multiprocessing  # loaded by a sweep, not with the package
    # named: the workers inherit `lane`, `tasks` and the count; the sweep starts no thread for a fork to copy
    fork = multiprocessing.get_context("fork")
    taken = fork.Value("q", 0)  # takes by all lanes; one past the last chain gets None

    def take() -> int | None:  # the next chain, longest (smallest eps) first so no lane idles at the end
        with taken.get_lock():
            i, taken.value = taken.value, taken.value + 1
        return i if i < len(tasks) else None

    def lane() -> list:
        return [(i, _sweep_chain(tasks[i])) for i in iter(take, None)]

    def answer(pipe) -> None:  # a worker's lane: it sends its chains' T_num, or in their place its failure, an interrupt too
        try:
            pipe.send(lane())
        except BaseException as exc:
            list(iter(take, None))  # leave no chain to the other lanes: take every one left
            pipe.send(exc)

    forked = []  # (worker, read end of its pipe)
    try:
        for _ in range(min(jobs, len(tasks)) - 1):  # this process is a lane too
            read, write = fork.Pipe(duplex=False)
            worker = fork.Process(target=answer, args=(write,))
            worker.start()
            forked.append((worker, read))
            write.close()  # the worker holds the only write end: its exit without a reply is an EOFError here
        results = dict(lane())  # this lane's failure is raised before any pipe is read, and ends the workers
        for _, read in forked:
            try:
                reply = read.recv()
            except EOFError:
                raise RuntimeError("a sweep worker process died") from None
            if isinstance(reply, BaseException):
                raise reply
            results.update(reply)
    finally:
        for worker, _ in forked:
            worker.terminate()
            worker.join()

    points = []
    for i, eps in enumerate(spec.eps_values):
        levels = results[i]
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
    the delta_m that their bounds share (the bound engine does not derive it)."""

    rows: tuple[BoundCheckRow, ...]
    delta_m: float
    conditional: bool
    all_ok: bool
    note: str = ""


def check_upper_bound(spec: SweepSpec, sweep_result: SweepResult, bounds: dict[float, LifespanBound]) -> BoundCheckReport:
    """Assert T_num <= T_upper for every eps of `sweep_result`, the result
    of `sweep(spec)`, with T_upper from `bounds`: the lifespan bound at
    spec's parameters keyed by its eps, for exactly the sweep's eps values,
    all under one delta_m (ValueError otherwise), which the report carries.
    A bound below the first time step is flagged vacuous (unresolvable at
    this resolution) but still compared.
    """
    unmatched = sorted(set(bounds).symmetric_difference(pt.eps for pt in sweep_result.points))
    if unmatched:
        raise ValueError(f"the bounds must be keyed by the sweep's eps values, but eps {unmatched} is in only one of them")
    delta_ms = {bound.delta_m for bound in bounds.values()}
    if len(delta_ms) != 1:
        raise ValueError(f"the bounds must share one delta_m, got {sorted(delta_ms)}")
    rows = []
    for pt in sweep_result.points:
        T_upper = bounds[pt.eps].T_upper
        ok = pt.T_num is not None and pt.T_num <= T_upper
        rows.append(BoundCheckRow(eps=pt.eps, T_num=pt.T_num, T_upper=T_upper, ok=ok, vacuous=T_upper < spec.grid.dt))
    note = "bound vacuous at this resolution for some eps" if any(r.vacuous for r in rows) else ""
    conditional = any(bound.conditional for bound in bounds.values())
    return BoundCheckReport(rows=tuple(rows), delta_m=delta_ms.pop(), conditional=conditional, all_ok=all(r.ok for r in rows), note=note)


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

    Profiles at a common comparison time, snapped to the nearest coarse
    level k >= 1 with k dt <= t_max (so every level reaches it), are
    differenced on the coarse nodes that all levels hold, in the radially
    weighted L2 norm (dr sum r^(n-1) du^2)^(1/2); successive error ratios
    give the Richardson order.  Passes when every profile order lies in
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
    if t_c > grid.t_max:
        raise ValueError("compare_time exceeds t_max")
    n0 = max(1, grid.level(t_c))
    if n0 * dt0 > grid.t_max:  # one level back, which every finer level reaches
        n0 -= 1
    if n0 < 1:
        raise ValueError(f"t_max = {grid.t_max} is shorter than the coarse step dt = {dt0}")
    t_c = n0 * dt0

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

    # the coarse nodes, causal at t_c, that every level holds
    profiles = [res.snapshots[0].u[:: 2**level] for level, res in enumerate(runs)]
    m = min(u.size for u in profiles)
    weights = grid.dr * runs[0].snapshots[0].r[:m] ** (params.n - 1.0)
    errors = []
    for a, b in zip(profiles, profiles[1:]):
        errors.append(float(math.sqrt(np.sum(weights * (a[:m] - b[:m]) ** 2))))
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
