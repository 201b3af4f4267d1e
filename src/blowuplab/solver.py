"""Explicit radial finite-volume solver with blow-up detection.

Every form is discretized on the uniform grid r_i = i dr, i = 0..N, as
one three-level leapfrog stencil for u_tt - L u = a |u|^p + c u/(1+t)^2,
L u = r^(1-n) (r^(n-1) u_r)_r, with per-form coefficients (beta, a, c)
and per-node weights built once per run:

    (1+beta) u_i^(j+1) = D_i u_i + A_i u_(i+1) + B_i u_(i-1)
                         - (1-beta) u_i^(j-1) + dt^2 a |u_i|^p,

D_i = 2 - A_i - B_i + dt^2 c/(1+t_j)^2, lambda = dt/dr = cfl:

* u-form, u_tt - L u = (1+t)^(-mu(p-1)/2) |u|^p + c u/(1+t)^2 with
  c = (mu/2)(mu/2-1) - nu: beta = 0, a = (1+t)^(-mu(p-1)/2);
* v-form, v_tt - L v + mu/(1+t) v_t + nu/(1+t)^2 v = |v|^p, damping by
  the centered difference (v^(j+1) - v^(j-1))/(2 dt):
  beta = mu dt/(2(1+t)), a = 1, c = -nu;
* free form: the bare wave operator, no source (reference runs).

The u- and v-forms describe the same dynamics through
u = (1+t)^(mu/2) v; `transform_check` measures the discrete residue of
that identity.

Finite volumes: node i is the centre of the cell between the faces
r_(i+-1/2), with exact volume V_i = (r_(i+1/2)^n - r_(i-1/2)^n)/n, and
L u_i is the net flux r^(n-1) u_r through its faces over V_i, so
A_i, B_i = lambda^2 dr r_(i+-1/2)^(n-1)/V_i (`_face_weights`).  The
origin cell is the ball r <= dr/2: no inner face, so B_0 = 0 and
A_0 = 2n lambda^2, the limit n u_rr of L.  The operator is symmetric in
the V-weighted inner product with a real spectrum <= 0 for every n, so
leapfrog conserves `discrete_energy` and is stable while lambda^2 rho
<= 4, rho the largest eigenvalue of -L dr^2: `max_stable_cfl`.  A mass
c < 0 adds up to -dt^2 c to lambda^2 rho; `run` checks both before stepping.

Outer boundary: no absorbing condition, so values are correct only
inside the shrinking causal region r <= r_max - t/cfl (the discrete
stencil moves one node per step, i.e. at speed 1/cfl >= 1).  `run`
requires r_max > t_max/cfl so the region never empties, restricts
amplitude monitoring, snapshots and blow-up detection to it, and updates
only a window cut to it every 64 steps: values outside it never reach it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from ._quadrature import integrate
from .exponents import ModelParams, _critical_mass, _weight_exponent

__all__ = [
    "ConfigurationError",
    "Form",
    "GridSpec",
    "Snapshot",
    "SolverRun",
    "TransformReport",
    "initial_data",
    "max_stable_cfl",
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

    def level(self, t: float) -> int:
        """The level j = round(t/dt) of time t, ties to the even level; `run` reports it as j dt."""
        return round(float(t) / self.dt)

    def radii(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dr

    def refined(self, factor: int = 2) -> "GridSpec":
        """Same domain with dr (hence dt) divided by `factor`."""
        return replace(self, dr=self.dr / factor)


def initial_data(r, params: ModelParams):
    """Velocity profile g(r) = M (1+r)^(-(kbar+1)) (without the eps factor)."""
    return params.M * (1.0 + np.asarray(r, dtype=float)) ** (-(params.kbar + 1.0))


def _face_weights(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights (a_i, b_i) = dr r_(i+-1/2)^(n-1)/V_i of the cells i = 0..count-1,
    the outer and inner face over the volume: a_i = n/((i+1/2)(1 - q_i^n))
    and b_i = a_i q_i^(n-1), q_i = (i-1/2)/(i+1/2), with b_0 = 0 (the origin
    cell has no inner face).  1 - q^n is taken as -expm1(n log1p(-1/(i+1/2))),
    so no power of r is formed and nothing overflows for any n."""
    s = np.arange(count) + 0.5
    log_q = np.log1p(-1.0 / s[1:])
    a, b = n / s, np.zeros(count)
    a[1:] /= -np.expm1(n * log_q)
    b[1:] = a[1:] * np.exp((n - 1.0) * log_q)
    return a, b


@functools.cache
def max_stable_cfl(n: int) -> float:
    """Largest stable Courant ratio min(1, 2/sqrt(rho)), rho the largest
    eigenvalue of -L dr^2 on 64 nodes, symmetrised by the cell volumes
    (diagonal a_i + b_i, off-diagonal -sqrt(a_i b_(i+1))).  Its top mode
    sits at the origin, so longer grids give the same limit to rounding;
    it falls from 0.909 at n = 2 to sqrt(2/n) for large n."""
    a, b = _face_weights(n, 64)
    off = -np.sqrt(a[:-1] * b[1:])
    rho = np.linalg.eigvalsh(np.diag(a + b) + np.diag(off, 1) + np.diag(off, -1))[-1]
    return min(1.0, 2.0 / math.sqrt(rho))


class _Leapfrog:
    """The leapfrog update of one form on one grid.  The weights and the
    form's coefficients are bound once per run: a = (1+t)^a_exp (no source
    in the free form), dt^2 c = dt2c and beta = b_mu dt/(2(1+t))."""

    def __init__(self, form: Form, params: ModelParams, grid: GridSpec) -> None:
        mu, p, nu = params.mu, params.p, params.nu
        self.dt, self.dt2, self.p = grid.dt, grid.dt**2, p
        a, b = _face_weights(params.n, grid.n_nodes)
        self.A, self.B = grid.cfl**2 * a, grid.cfl**2 * b
        self.D, self.x = 2.0 - self.A - self.B, np.empty(grid.n_nodes)
        self.a_exp = {Form.U: -_weight_exponent(mu, p), Form.V: 0.0}.get(form)
        self.dt2c = self.dt2 * {Form.U: _critical_mass(mu) - nu, Form.V: -nu}.get(form, 0.0)
        self.b_mu = mu if form is Form.V else 0.0

    def bind(self, u: np.ndarray, up: np.ndarray, m: int, au: np.ndarray) -> Callable[[float], None]:
        """The update of the window [:m], sliced once: a function of t that
        overwrites up[:m] (level j-1) with level j+1 from level j in u, reading
        u[:m+1] and au[:m] = |u[:m]|, then scratch like x, left as |up[:m]|."""
        x, x1, d0, A, B = self.x[:m], self.x[1:m], self.D[:m], self.A[:m], self.B[1:m]  # B_0 = 0
        u0, u1, um, up, up1, au = u[:m], u[1 : m + 1], u[: m - 1], up[:m], up[1:m], au[:m]
        a_exp, b_mu, dt, dt2, dt2c, p = self.a_exp, self.b_mu, self.dt, self.dt2, self.dt2c, self.p

        def step(t: float) -> None:
            a = 0.0 if a_exp is None else (1.0 + t) ** a_exp
            beta = 0.5 * (b_mu / (1.0 + t)) * dt if b_mu else 0.0
            d = np.add(d0, dt2c / (1.0 + t) ** 2, x) if dt2c else d0
            np.multiply(u0, d, x)
            if beta:
                np.multiply(up, 1.0 - beta, up)
            np.subtract(x, up, up)
            np.multiply(A, u1, x)
            np.add(up, x, up)
            np.multiply(B, um, x1)
            np.add(up1, x1, up1)
            if a:
                np.power(au, p, au)
                np.multiply(au, dt2 * a, au)
                np.add(up, au, up)
            if beta:
                np.divide(up, 1.0 + beta, up)
            np.abs(up, au)
        return step


def causal_node_count(grid: GridSpec, t: float) -> int:
    """Number of leading grid nodes unaffected by the outer boundary at time
    t: the discrete stencil moves one node per step, so the boundary
    pollutes nodes within j = grid.level(t) of the outer node."""
    return max(1, min(grid.n_nodes, grid.n_nodes - grid.level(t)))


@dataclass(frozen=True)
class Snapshot:
    t: float
    r: np.ndarray
    u: np.ndarray


@dataclass
class SolverRun:
    """One run: T_num is the detected blow-up time (None if the run
    survived t_max), r_star the radius of the largest |u| over the causal
    region at the stop level (None if it survived), and amplitude_history
    rows (t, max |u| over the causal region); t_end and every t are j dt."""

    form: Form
    params: ModelParams
    grid: GridSpec
    T_num: float | None
    t_end: float
    amplitude_history: np.ndarray
    snapshots: list[Snapshot] = field(default_factory=list)
    r_star: float | None = None

    @property
    def outcome(self) -> str:
        """'BlewUp' or 'Survived', derived from T_num."""
        return "Survived" if self.T_num is None else "BlewUp"


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
    such as compact bumps); g(r) must have the shape of r.  Every level
    from the first step on is tested: T_num is refined by linear
    interpolation of the amplitude between the last level below
    u_threshold (level 0 has amplitude 0) and the first at or above it; a
    non-finite amplitude reports its level.  Every time reported is a level
    j times dt; a snapshot time s is taken at level grid.level(s), the rule
    of the last level: every s in [0, t_max] unless the run stops first.
    """
    limit = max_stable_cfl(params.n)
    if grid.cfl > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"cfl = {grid.cfl} exceeds the stability limit {limit:.4f} for n = {params.n}"
        )
    kernel = _Leapfrog(form, params, grid)  # leapfrog needs dt^2 (rho(-L) + max(0, -c)) <= 4, largest at t = 0
    if kernel.dt2c < 0 and (load := (grid.cfl / limit) ** 2 - kernel.dt2c / 4.0) > 1.0 + 1e-12:
        raise ConfigurationError(
            f"the mass term c u/(1+t)^2, c = {kernel.dt2c / kernel.dt2:.6g}, breaks the stability limit: "
            f"(cfl/{limit:.4f})^2 + dt^2 (-c)/4 = {load:.3g} > 1 for n = {params.n}; lower dr"
        )
    if not grid.r_max > grid.t_max / grid.cfl:
        raise ConfigurationError(
            f"domain-of-dependence closure requires r_max > t_max/cfl (the discrete cone moves "
            f"at speed 1/cfl), got r_max = {grid.r_max}, t_max/cfl = {grid.t_max / grid.cfl:.6g}"
        )

    r = grid.radii()
    dt = grid.dt
    g_vals = np.asarray(g(r), dtype=float) if g is not None else initial_data(r, params)
    if g_vals.shape != r.shape:
        raise ConfigurationError(f"g(r) must have the shape {r.shape} of r, got {g_vals.shape}")

    for s in snapshot_times:
        if not 0 <= s <= grid.t_max:  # also rejects NaN
            raise ConfigurationError(f"snapshot time {s} outside [0, t_max]")
    pending = sorted(grid.level(s) for s in snapshot_times)
    snapshots: list[Snapshot] = []

    def take_due_snapshots(j: int, level: np.ndarray, nc: int) -> None:
        while pending and pending[0] == j:
            pending.pop(0)
            snapshots.append(Snapshot(t=j * dt, r=r[:nc].copy(), u=level[:nc].copy()))

    # two level buffers (the kernel overwrites level j-1 with level j+1) and |u|
    # of the newest level: its amplitude, then the kernel's source term
    u, au = np.zeros_like(r), np.empty_like(r)  # level 0: u = 0, amplitude 0
    j, amp, T_num, n_nodes, history = 0, 0.0, None, grid.n_nodes, []
    take_due_snapshots(0, u, n_nodes)
    # |u|^p may overflow and inf - inf give NaN: reported below as a non-finite level
    with np.errstate(over="ignore", invalid="ignore"):
        # level 1 from u = 0, u_t = eps g: u_tt(0) = -b_mu eps g, which gives
        # the factor (1 - b_mu dt/2), exactly 1 outside the damped form
        up = dt * params.eps * g_vals * (1.0 - kernel.b_mu * dt / 2.0)
        np.abs(up, au)
        for j in range(1, grid.level(grid.t_max) + 1):
            nc = max(n_nodes - j, 1)  # causal_node_count(grid, j dt), inline: one call per step costs time
            if j > 1:
                if j % 64 == 2:  # one window for 64 steps: node i < nc(j+1) reads only nodes i+-1 < nc(j)
                    steps = kernel.bind(u, up, nc, au), kernel.bind(up, u, nc, au)
                steps[j % 2]((j - 1) * dt)
            u, up = up, u
            new_amp = float(au[:nc].max())
            if collect_history:
                history.append((j * dt, new_amp))
            if not math.isfinite(new_amp):
                T_num = j * dt
                break
            if new_amp >= grid.u_threshold:  # amp < u_threshold <= new_amp
                T_num = (j - 1) * dt + (grid.u_threshold - amp) / (new_amp - amp) * dt
                break
            amp = new_amp
            if pending:
                take_due_snapshots(j, u, nc)

    hist = np.asarray(history) if history else np.empty((0, 2))
    r_star = None if T_num is None else float(r[np.argmax(au[:nc])])  # au holds |u| of the stop level
    return SolverRun(form, params, grid, T_num, j * dt, hist, snapshots, r_star)


def discrete_energy(u_prev: np.ndarray, u_curr: np.ndarray, grid: GridSpec, n: int) -> float:
    """The energy that leapfrog conserves between two consecutive levels,

        sum_i V_i u_t,i^2 + sum_i r_(i+1/2)^(n-1) dr (Du^(j+1))_i (Du^j)_i / dr^2,

    u_t forward in time, D the forward difference across face i+1/2, and
    V_i = dr r_(i+1/2)^(n-1)/a_i from the kernel's face weights (the
    spherical area factor left out).  It is constant, up to rounding, for
    a free wave stepped over the whole grid with the outer node frozen."""
    a, _ = _face_weights(n, u_curr.size)
    face = grid.dr * (grid.dr * (np.arange(u_curr.size) + 0.5)) ** (n - 1.0)
    ut = (u_curr - u_prev) / grid.dt
    grad = np.diff(u_curr) * np.diff(u_prev) / grid.dr**2
    return float(np.sum(face * ut**2 / a) + np.sum(face[:-1] * grad))


def exact_free_wave_n3(t: float, r, g: Callable[[float], float], eps: float = 1.0) -> np.ndarray:
    """Spherical-means solution of the free radial wave equation in n = 3,

        u(t, r) = eps/(2r) * integral_(|r-t|)^(r+t) s g(s) ds,

    with the limit eps t g(t) at r = 0.  The sorted endpoints |r-t|, r+t
    of all radii cut the line into gaps, each integrated once by adaptive
    Gauss-Legendre quadrature of order 6 to a relative tolerance of 1e-12;
    each radius sums its gaps, never differences of a running total
    (ArithmeticError if s g(s) cannot be integrated to it, or if r = 0 is
    requested and eps t g(t) is not finite); g maps a float to a float, t
    and r must be finite and >= 0.  The independent reference for
    convergence tests."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    ok = (radii >= 0.0) & (radii < math.inf)
    if not ok.all():
        raise ValueError(f"r must be finite and >= 0, got {radii[~ok][0]}")
    inner = radii != 0.0
    origin = eps * t * g(t)
    if not (inner.all() or math.isfinite(origin)):
        raise ArithmeticError(f"non-finite value eps t g(t) = {origin} at r = 0")
    out = np.full_like(radii, origin)

    def sg(s: np.ndarray) -> np.ndarray:  # s g(s), one call of g per node
        return s * np.fromiter(map(g, s.ravel().tolist()), float, s.size).reshape(s.shape)
    rv = radii[inner]
    lo, hi = np.abs(rv - t), rv + t
    ends = np.sort(np.r_[lo, hi])
    pieces = np.append(integrate(sg, ends[:-1], ends[1:], rtol=1e-12), 0.0)  # 0: reduceat may start at the end
    first, last = np.searchsorted(ends, lo), np.searchsorted(ends, hi)  # pieces[first:last] span [lo, hi]
    sums = np.add.reduceat(pieces, np.c_[first, last].ravel())[::2]
    out[inner] = eps / (2.0 * rv) * np.where(first < last, sums, 0.0)
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
    """Report max |u - (1+t)^(mu/2) v| / max |u| over the snapshots that a u-form and a
    v-form run both took, at times j dt equal bitwise on one grid (else ValueError)."""
    pairs = list(zip(run_u.snapshots, run_v.snapshots))
    if not pairs:
        raise ValueError("no common snapshots before blow-up; lower the snapshot times")
    u_scale = max(float(np.max(np.abs(su.u))) for su, _ in pairs)
    ds = []
    for su, sv in pairs:
        if su.t != sv.t:
            raise ValueError(f"snapshot times differ between forms: t = {su.t} in the u-form, {sv.t} in the v-form")
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
