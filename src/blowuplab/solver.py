"""Explicit radial finite-difference solver with blow-up detection.

Every form is discretized on the uniform grid r_i = i dr, i = 0..N, by
central differences for u_tt - L u = a |u|^p + c u/(1+t)^2, L u = u_rr +
(n-1)/r u_r, as one three-level leapfrog stencil with per-form
coefficients (beta, a, c) and per-node weights built once per run:

    (1+beta) u_i^(j+1) = D u_i + A_i u_(i+1) + B_i u_(i-1)
                         - (1-beta) u_i^(j-1) + dt^2 a |u_i|^p,

A_i, B_i = lambda^2 (1 +- h_i), h_i = (n-1) dr/(2 r_i), lambda = dt/dr =
cfl, and D = 2 - 2 lambda^2 + dt^2 c/(1+t_j)^2:

* u-form, u_tt - L u = (1+t)^(-mu(p-1)/2) |u|^p + c u/(1+t)^2 with
  c = (mu/2)(mu/2-1) - nu: beta = 0, a = (1+t)^(-mu(p-1)/2);
* v-form, v_tt - L v + mu/(1+t) v_t + nu/(1+t)^2 v = |v|^p, damping by
  the centered difference (v^(j+1) - v^(j-1))/(2 dt):
  beta = mu dt/(2(1+t)), a = 1, c = -nu;
* free form: the bare wave operator, no source (reference runs).

The u- and v-forms describe the same dynamics through
u = (1+t)^(mu/2) v; `transform_check` measures the discrete residue of
that identity.

Origin: by radial symmetry u_r(t, 0) = 0, so L at r = 0 is its limit
n u_rr, discretized with the even extension u_(-1) = u_1: h_0 = 2n-1
gives A_0 = 2n lambda^2, and B_0 = -2(n-1) lambda^2 multiplies u_0, so
D_0 = D + B_0.  That stencil caps the stable Courant ratio
(`max_stable_cfl`), which `run` checks before stepping.

Outer boundary: no absorbing condition, so values are correct only
inside the shrinking causal region r <= r_max - t/cfl (the discrete
stencil moves one node per step, i.e. at speed 1/cfl >= 1).  `run`
requires r_max > t_max/cfl so the region never empties, restricts
amplitude monitoring, snapshots and blow-up detection to it, and updates
only its nodes, one fewer per step: values outside it never reach it.
`step` updates the whole grid with the outer node frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from ._quadrature import integrate
from .exponents import ModelParams

__all__ = [
    "ConfigurationError",
    "Form",
    "GridSpec",
    "SolverState",
    "Snapshot",
    "SolverRun",
    "TransformReport",
    "initial_data",
    "max_stable_cfl",
    "first_step",
    "step",
    "run",
    "causal_node_count",
    "discrete_energy",
    "exact_free_wave_n3",
    "transform_times",
    "compare_forms",
    "transform_check",
]


class ConfigurationError(ValueError):
    """Grid/parameter combination rejected before any stepping."""


class Form(str, Enum):
    U = "u"
    V = "v"
    FREE = "free"


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters.

    dr           radial step
    r_max        outer radius; must exceed t_max/cfl so the causal region
                 r <= r_max - t/cfl stays nonempty (frozen outer boundary)
    t_max        maximal simulated time
    cfl          Courant ratio dt/dr in (0, 1]; checked against the
                 n-dependent stability limit when a run starts
    u_threshold  amplitude at which a run is declared blown up
    """

    dr: float
    r_max: float
    t_max: float
    cfl: float = 0.7
    u_threshold: float = 1e8

    def __post_init__(self) -> None:
        if not self.dr > 0:
            raise ValueError(f"dr must be > 0, got {self.dr}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not self.r_max > 0 or not self.t_max > 0:
            raise ValueError("r_max and t_max must be positive")
        if not self.u_threshold > 0:
            raise ValueError(f"u_threshold must be > 0, got {self.u_threshold}")
        for name in ("dr", "r_max", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def dt(self) -> float:
        return self.cfl * self.dr

    @property
    def n_nodes(self) -> int:
        return int(round(self.r_max / self.dr)) + 1

    def radii(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dr

    def refined(self, factor: int = 2) -> "GridSpec":
        """Same domain with dr (hence dt) divided by `factor`."""
        return replace(self, dr=self.dr / factor)


def initial_data(r, params: ModelParams):
    """Velocity profile g(r) = M (1+r)^(-(kbar+1)) (without the eps factor)."""
    return params.M * (1.0 + np.asarray(r, dtype=float)) ** (-(params.kbar + 1.0))


def _coefficients(form: Form, params: ModelParams, t: float) -> tuple[float, float, float]:
    """(a, c, b) of u_tt - L u + b u_t = a |u|^p + c u/(1+t)^2 for one form at time t."""
    mu, p, nu = params.mu, params.p, params.nu
    if form is Form.U:
        return (1.0 + t) ** (-mu * (p - 1.0) / 2.0), 0.25 * mu * (mu - 2.0) - nu, 0.0
    if form is Form.V:
        return 1.0, -nu, mu / (1.0 + t)
    return 0.0, 0.0, 0.0


def max_stable_cfl(n: int) -> float:
    """Stable Courant ratio bound min(0.9, 0.995 sqrt(2/n)).

    sqrt(2/n) is the origin-stencil bound (exact for n = 3, where the
    origin node decouples with eigenvalue -2n/dr^2); the 0.9 cap covers
    the first-order radial term's penalty at n = 2 (measured spectral
    limit ~0.909).
    """
    return min(0.9, 0.995 * math.sqrt(2.0 / n))


class _Leapfrog:
    """The leapfrog update of one form on one grid, weights built once per run."""

    def __init__(self, form: Form, params: ModelParams, grid: GridSpec) -> None:
        self.form, self.params, self.dt, self.dt2 = form, params, grid.dt, grid.dt**2
        lam2, n = grid.cfl**2, params.n
        h = np.concatenate(([2.0 * n - 1.0], (n - 1.0) / (2.0 * np.arange(1, grid.n_nodes - 1))))  # h_0: origin
        self.A, self.B = lam2 * (1.0 + h), lam2 * (1.0 - h)
        self.D, self.x = 2.0 - 2.0 * lam2, np.empty(grid.n_nodes)

    def __call__(self, u: np.ndarray, up: np.ndarray, t: float, m: int) -> None:
        """Overwrite up[:m] (level j-1) with level j+1 from level j in u at
        time t, reading u[:m+1]; x is the scratch for each term."""
        x, up = self.x[:m], up[:m]
        a, c, b = _coefficients(self.form, self.params, t)
        beta = 0.5 * b * self.dt
        np.multiply(u[:m], self.D + self.dt2 * c / (1.0 + t) ** 2, out=x)
        if beta:
            np.multiply(up, 1.0 - beta, out=up)
        np.subtract(x, up, out=up)
        np.multiply(self.A[:m], u[1 : m + 1], out=x)
        np.add(up, x, out=up)
        np.multiply(self.B[1:m], u[: m - 1], out=x[1:])
        x[0] = self.B[0] * u[0]
        np.add(up, x, out=up)
        if a:
            np.abs(u[:m], out=x)
            np.power(x, self.params.p, out=x)
            np.multiply(x, self.dt2 * a, out=x)
            np.add(up, x, out=up)
        if beta:
            np.divide(up, 1.0 + beta, out=up)


@dataclass
class SolverState:
    """Two consecutive time levels; u_curr lives at t = j dt."""

    j: int
    t: float
    u_prev: np.ndarray
    u_curr: np.ndarray


def first_step(form: Form, g: np.ndarray, eps: float, dt: float, mu: float) -> np.ndarray:
    """Level-1 values from u = 0, u_t = eps g at t = 0.

    For the u and free forms the initial acceleration vanishes, so
    u^1 = dt eps g is third-order accurate.  The damped form starts with
    v_tt(0) = -mu eps g, handled by the extra (1 - mu dt / 2) factor.
    """
    u1 = dt * eps * g
    if form is Form.V:
        u1 = u1 * (1.0 - mu * dt / 2.0)
    return u1


def step(state: SolverState, grid: GridSpec, params: ModelParams, form: Form) -> SolverState:
    """One leapfrog update of the whole grid, the outer node frozen.
    Non-finite values are left to the caller; they are not an error."""
    u_next = np.array(state.u_prev, dtype=float)
    _Leapfrog(form, params, grid)(state.u_curr, u_next, state.t, grid.n_nodes - 1)
    u_next[-1] = state.u_curr[-1]
    return SolverState(j=state.j + 1, t=state.t + grid.dt, u_prev=state.u_curr, u_curr=u_next)


def causal_node_count(grid: GridSpec, t: float) -> int:
    """Number of leading grid nodes unaffected by the outer boundary at time
    t: the discrete stencil moves one node per step, so the boundary
    pollutes nodes within j(t) = t/dt of the outer node."""
    j = int(round(t / grid.dt))
    return max(1, min(grid.n_nodes, grid.n_nodes - j))


@dataclass(frozen=True)
class Snapshot:
    t: float
    r: np.ndarray
    u: np.ndarray


@dataclass
class SolverRun:
    """Outcome of one run: 'BlewUp' with the detected time T_num, or
    'Survived' the full t_max.  amplitude_history rows are (t, max |u|
    over the causal region)."""

    form: Form
    params: ModelParams
    grid: GridSpec
    outcome: str
    T_num: float | None
    t_end: float
    amplitude_history: np.ndarray
    snapshots: list[Snapshot] = field(default_factory=list)

    @property
    def blew_up(self) -> bool:
        return self.outcome == "BlewUp"


def run(
    form: Form,
    params: ModelParams,
    grid: GridSpec,
    g: Callable[[np.ndarray], np.ndarray] | None = None,
    snapshot_times: Sequence[float] = (),
    collect_history: bool = True,
) -> SolverRun:
    """March to t_max or to threshold crossing.

    `g` overrides the default velocity profile (used for reference data
    such as compact bumps).  T_num is refined by linear interpolation of
    the amplitude between the last two levels; a non-finite amplitude
    reports the level where it appeared.
    """
    limit = max_stable_cfl(params.n)
    if grid.cfl > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"cfl = {grid.cfl} exceeds the stability limit {limit:.4f} for n = {params.n}"
        )
    if not grid.r_max > grid.t_max / grid.cfl:
        raise ConfigurationError(
            f"domain-of-dependence closure requires r_max > t_max/cfl (the discrete cone moves "
            f"at speed 1/cfl), got r_max = {grid.r_max}, t_max/cfl = {grid.t_max / grid.cfl:.6g}"
        )

    r = grid.radii()
    dt = grid.dt
    g_vals = np.asarray(g(r), dtype=float) if g is not None else initial_data(r, params)

    pending = sorted(float(s) for s in snapshot_times)
    for s in pending:
        if not 0 <= s <= grid.t_max:  # also rejects NaN
            raise ConfigurationError(f"snapshot time {s} outside [0, t_max]")
    snapshots: list[Snapshot] = []

    # two level buffers: the kernel overwrites level j-1 with level j+1
    kernel = _Leapfrog(form, params, grid)
    u, up = first_step(form, g_vals, params.eps, dt, params.mu), np.zeros_like(r)
    t = dt
    nc = causal_node_count(grid, t)

    def take_due_snapshots(t: float, level: np.ndarray, nc: int) -> None:
        # nearest-step semantics: fire once the step midpoint passes the
        # requested time, so a request at t_max is never missed
        while pending and t + dt / 2.0 >= pending[0]:
            pending.pop(0)
            snapshots.append(Snapshot(t=t, r=r[:nc].copy(), u=level[:nc].copy()))

    take_due_snapshots(0.0, up, causal_node_count(grid, 0.0))  # up holds level 0, all zeros

    # max |u| without an abs temporary; NaN or inf stays non-finite
    amp = float(max(u[:nc].max(), -u[:nc].min()))
    history = [(t, amp)] if collect_history else []
    take_due_snapshots(t, u, nc)

    T_num = None
    for _ in range(1, int(round(grid.t_max / dt))):
        nc = causal_node_count(grid, t + dt)
        kernel(u, up, t, nc)
        u, up, t_prev, t = up, u, t, t + dt
        new_amp = float(max(u[:nc].max(), -u[:nc].min()))
        if collect_history:
            history.append((t, new_amp))
        if not math.isfinite(new_amp):
            T_num = t
        elif new_amp >= grid.u_threshold:
            if math.isfinite(amp) and new_amp > amp:
                frac = (grid.u_threshold - amp) / (new_amp - amp)
                T_num = t_prev + min(max(frac, 0.0), 1.0) * dt
            else:
                T_num = t
        amp = new_amp
        if T_num is not None:
            break
        take_due_snapshots(t, u, nc)

    hist = np.asarray(history) if history else np.empty((0, 2))
    outcome = "Survived" if T_num is None else "BlewUp"
    return SolverRun(form, params, grid, outcome, T_num, t, hist, snapshots)


def discrete_energy(state: SolverState, grid: GridSpec, n: int) -> float:
    """Half-step energy dr * sum r^(n-1) (u_t^2 + u_r^2) between the two
    stored levels (u_t forward in time, u_r central on the averaged
    level)."""
    dt, dr = grid.dt, grid.dr
    r = grid.radii()
    ut = (state.u_curr - state.u_prev) / dt
    um = 0.5 * (state.u_curr + state.u_prev)
    ur = np.zeros_like(um)
    ur[1:-1] = (um[2:] - um[:-2]) / (2.0 * dr)
    ur[-1] = (um[-1] - um[-2]) / dr
    # ur[0] = 0 by radial symmetry; the r^(n-1) weight kills it anyway
    return float(dr * np.sum(r ** (n - 1.0) * (ut**2 + ur**2)))


def exact_free_wave_n3(t: float, r, g: Callable[[float], float], eps: float = 1.0) -> np.ndarray:
    """Spherical-means solution of the free radial wave equation in n = 3,

        u(t, r) = eps/(2r) * integral_(|r-t|)^(r+t) s g(s) ds,

    with the limit eps t g(t) at r = 0, by adaptive Gauss-Legendre
    quadrature over all radii at once to a relative tolerance of 1e-12
    (ArithmeticError if s g(s) cannot be integrated to it); g maps a float
    to a float.  The independent reference for convergence tests."""
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    inner = radii != 0.0
    out = np.full_like(radii, eps * t * g(t))
    vg, rv = np.vectorize(g, otypes=[float]), radii[inner]
    out[inner] = eps / (2.0 * rv) * integrate(lambda s: s * vg(s), np.abs(rv - t), rv + t, rtol=1e-12)
    return out if np.ndim(r) else float(out[0])


@dataclass(frozen=True)
class TransformReport:
    """Discrepancy of u = (1+t)^(mu/2) v between the two solution forms,
    relative to the largest |u| seen among the compared snapshots."""

    times: tuple[float, ...]
    discrepancies: tuple[float, ...]
    max_rel_discrepancy: float | None  # None: no snapshot to compare


def transform_times(grid: GridSpec, times: Sequence[float] = ()) -> tuple[float, ...]:
    """Snapshot times of a transform check: `times`, or else t_max k/4, k = 1..4."""
    return tuple(times) or tuple(grid.t_max * k / 4.0 for k in range(1, 5))


def compare_forms(run_u: SolverRun, run_v: SolverRun) -> TransformReport:
    """Report max |u - (1+t)^(mu/2) v| / max |u| over the snapshots that a
    u-form and a v-form run of the same problem both took."""
    pairs = list(zip(run_u.snapshots, run_v.snapshots))
    if not pairs:
        raise ValueError("no common snapshots before blow-up; lower the snapshot times")
    u_scale = max(float(np.max(np.abs(su.u))) for su, _ in pairs)
    ds = []
    for su, sv in pairs:
        if abs(su.t - sv.t) > 1e-12:
            raise AssertionError("snapshot times diverged between forms")
        nc = min(su.u.size, sv.u.size)
        ds.append(float(np.max(np.abs(su.u[:nc] - (1.0 + su.t) ** (run_u.params.mu / 2.0) * sv.u[:nc]))))
    return TransformReport(
        times=tuple(su.t for su, _ in pairs),
        discrepancies=tuple(ds),
        max_rel_discrepancy=max(ds) / u_scale if u_scale > 0 else 0.0,
    )


def transform_check(params: ModelParams, grid: GridSpec, times: Sequence[float] = ()) -> TransformReport:
    """Run both forms on the same grid and compare them at `transform_times`."""
    times = transform_times(grid, times)
    return compare_forms(*(run(f, params, grid, snapshot_times=times, collect_history=False) for f in (Form.U, Form.V)))
