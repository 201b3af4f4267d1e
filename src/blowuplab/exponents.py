"""Critical-exponent algebra and region classification.

The model problem is the wave equation with scale-invariant lower-order
terms,

    v_tt - Lap(v) + mu/(1+t) v_t + nu/(1+t)^2 v = |v|^p,
    v(0, x) = 0,   v_t(0, x) = eps * g(|x|),

with radial data bounded below by M (1+r)^(-(kbar+1)).  Two families of
critical powers organize the (kbar, p) plane:

* the heat-type threshold  p_F(h) = 1 + 2/h  evaluated at the shifted
  decay h = kbar + mu/2: below it, slowly decaying data force finite-time
  blow-up;
* the wave-type threshold  p_S(d), the positive root of
  (d-1) p^2 - (d+1) p - 2 = 0, evaluated in the shifted dimension
  d = n + mu: above it (and above the Fujita curve) the known
  global-existence results apply.

The two curves p = p_F(kbar + mu/2) and p = (2 kbar + mu + 2)/(n + mu - 1)
meet at (kbar0, p_S(n + mu)); `kbar_zero` computes that abscissa.
`_conditions` tests every condition of both routes: `classify` turns its
result into one point's verdict, `lifespan_exponent` raises for its first
failed blow-up hypothesis, and `atlas` samples a whole rectangle.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

__all__ = [
    "UncoveredCaseError",
    "HypothesisError",
    "ModelParams",
    "Verdict",
    "RegionVerdict",
    "AtlasResult",
    "fujita",
    "strauss",
    "kbar_zero",
    "mu_max",
    "p_bar",
    "admissible_range",
    "lifespan_exponent",
    "classify",
    "atlas",
]


class UncoveredCaseError(ValueError):
    """The requested (n, mu) combination has no encoded literature case."""


class HypothesisError(ValueError):
    """A hypothesis of the blow-up result fails; the message names it."""


@dataclass(frozen=True)
class ModelParams:
    """Full parameter tuple of one problem instance.

    n     space dimension, integer >= 2
    mu    damping coefficient of mu/(1+t) v_t
    nu    mass coefficient of nu/(1+t)^2 v
    p     nonlinearity power, > 1
    kbar  data decay parameter, > -1 (data ~ M (1+r)^(-(kbar+1)))
    M     data amplitude, > 0
    eps   data size, > 0
    """

    n: int
    mu: float
    nu: float
    p: float
    kbar: float
    M: float = 1.0
    eps: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        for name in ("mu", "nu", "p", "kbar", "M", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.p > 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        if not self.kbar > -1:
            raise ValueError(f"kbar must be > -1, got {self.kbar}")
        if not self.M > 0:
            raise ValueError(f"M must be > 0, got {self.M}")
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")

    @property
    def m(self) -> int:
        """Half dimension floor(n/2); derived, never stored."""
        return self.n // 2


class Verdict(str, Enum):
    BLOW_UP = "BlowUpTheorem1"
    GLOBAL_EXISTENCE = "GlobalExistenceLiterature"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of one (kbar, p) point.

    `lifespan_exponent` is present exactly for blow-up verdicts;
    `active_constraints` names the boundary conditions that decided the
    verdict (for Unknown: the conditions that blocked each route).
    """

    kind: Verdict
    lifespan_exponent: float | None
    active_constraints: tuple[str, ...]

    def __post_init__(self) -> None:
        if (self.kind is Verdict.BLOW_UP) != (self.lifespan_exponent is not None):
            raise ValueError("lifespan_exponent present iff verdict is blow-up")
        if self.lifespan_exponent is not None and not self.lifespan_exponent > 0:
            raise ValueError("lifespan_exponent must be positive")


def _shifted_decay(kbar, mu):
    """Shifted decay h = kbar + mu/2, the argument of p_F; elementwise."""
    return kbar + mu / 2.0


def _critical_mass(mu: float) -> float:
    """Critical mass nu* = (mu/2)(mu/2 - 1) of the blow-up result."""
    return 0.25 * mu * (mu - 2.0)


def _weight_exponent(mu: float, p: float) -> float:
    """Exponent mu(p-1)/2 of the u-form weight (1+t)^(-mu(p-1)/2) on |u|^p."""
    return mu * (p - 1.0) / 2.0


def _existence_line(n: int, mu: float, p: float) -> float:
    """Decay kbar = ((n+mu-1)p - mu - 2)/2 of the straight existence boundary."""
    return (n + mu - 1.0) * p / 2.0 - (mu + 2.0) / 2.0


def _existence_power(n: int, mu: float, kbar):
    """Inverse of `_existence_line`: p = (2 kbar + mu + 2)/(n + mu - 1); elementwise."""
    return (2.0 * kbar + mu + 2.0) / (n + mu - 1.0)


def fujita(h: float) -> float:
    """Heat-type critical power p_F(h) = 1 + 2/h, for h > 0."""
    if not h > 0:
        raise ValueError(f"fujita requires h > 0, got {h}")
    return 1.0 + 2.0 / h


def _strauss_radicand(d: float) -> float:
    """D = (d+1)^2 + 8(d-1) of p_S(d); a ValueError names it beyond the float range."""
    try:
        return (d + 1.0) ** 2 + 8.0 * (d - 1.0)
    except OverflowError:
        raise ValueError(f"the radicand D = (d+1)^2 + 8(d-1) of p_S(d) is beyond the float range at d = {d}") from None


def strauss(d: float) -> float:
    """Wave-type critical power p_S(d): positive root of (d-1)p^2 - (d+1)p - 2.

    Defined for d > 1; strictly decreasing in d.
    """
    if not d > 1:
        raise ValueError(f"strauss requires d > 1, got {d}")
    return ((d + 1.0) + math.sqrt(_strauss_radicand(d))) / (2.0 * (d - 1.0))


def kbar_zero(n: int, mu: float) -> float:
    """Decay threshold kbar0 solving p_F(kbar0 + mu/2) = p_S(n + mu).

    With d = n + mu and D the radicand of p_S, the identity D - d^2 = 10d - 7
    gives kbar0 = 2/(p_S(d) - 1) - mu/2 = (sqrt(D) - d + 2n - 3)/4, computed
    with sqrt(D) - d = (10d - 7)/(sqrt(D) + d), which does not cancel as d grows.  For kbar below kbar0 there is a band of
    powers between the two critical curves where the blow-up result applies
    but the global-existence results do not.
    """
    if n < 2:
        raise ValueError(f"kbar_zero requires n >= 2, got {n}")
    d = n + mu
    if not d > 1:
        raise ValueError(f"kbar_zero requires n + mu > 1, got {d}")
    return ((10.0 * d - 7.0) / (math.sqrt(_strauss_radicand(d)) + d) + 2.0 * n - 3.0) / 4.0


def mu_max(n: int) -> float:
    """Upper end M(n) = (n-1)/2 (1 + sqrt((n+7)/(n-1))) of the damping range
    covered by the encoded global-existence results."""
    if n < 2:
        raise ValueError(f"mu_max requires n >= 2, got {n}")
    return 0.5 * (n - 1.0) * (1.0 + math.sqrt((n + 7.0) / (n - 1.0)))


def p_bar(n: int, mu: float) -> float:
    """Upper power cap min{p_F(mu), p_F((n+mu-1)/2)} of the general-damping
    global-existence results."""
    if not mu > 0:
        raise ValueError(f"p_bar requires mu > 0, got {mu}")
    return min(fujita(mu), fujita((n + mu - 1.0) / 2.0))


# Literature case table for the admissible decay interval [k1, k2].  Each
# (n, mu) combination documented below maps to explicit k1/k2 formulas plus
# an optional upper cap on p; anything else is an uncovered case.


def _mu2_case(n: int, p: float) -> tuple[float, float, tuple[str, bool] | None]:
    """(k1, k2, cap) for mu = 2 (no mass term); cap = (label, satisfied) or None."""
    if n < 3:
        raise UncoveredCaseError(f"no encoded admissible range for n = {n}, mu = 2")
    slow, k2 = (3.0 - p) / (p - 1.0), _existence_line(n, 2.0, p)
    if n == 3:
        return max(slow, 1.0 / (p - 1.0)), k2, None
    k1 = max(slow, (n - 1.0) / 2.0)
    if n % 2 == 0:
        cap = p_bar(n, 2.0)
        return k1, min(k2, n - 1.0), (f"p < p_bar(n, 2) = {cap:.6g}", p < cap)
    k2 = min(k2, (n * n - 2.0 * n + 13.0) / (2.0 * (n - 3.0)))
    if n == 5:
        return k1, min(k2, 3.0), ("p <= 2 (n = 5)", p <= 2.0)
    cap = (n + 1.0) / (n - 3.0)
    return k1, k2, (f"p <= (n+1)/(n-3) = {cap:.6g}", p <= cap)


def _case_with_cap(n: int, p: float, mu: float) -> tuple[float, float, tuple[str, bool] | None]:
    """k1, k2 and p-cap of the (n, mu) case: `_mu2_case` at mu = 2, else
    damping mu in [2, M(n)] with the matching mass nu = (mu/2)(mu/2 - 1)."""
    if mu == 2.0:
        return _mu2_case(n, p)
    if not 2.0 <= mu <= mu_max(n):
        raise UncoveredCaseError(
            f"mu = {mu} outside the encoded damping range [2, {mu_max(n):.6g}] for n = {n}"
        )
    k2 = min(n - 1.0, _existence_line(n, mu, p))
    cap_val = p_bar(n, mu)
    cap = (f"p < p_bar(n, mu) = {cap_val:.6g}", p < cap_val)
    k1 = max((n - 1.0) / 2.0, 2.0 / (p - 1.0) - mu / 2.0)
    # odd n: the slow-decay guard 1/(p-1) joins for damping above n - 1,
    # which at n = 3 is every mu that reaches here
    if n % 2 == 1 and mu > n - 1.0:
        k1 = max(k1, 1.0 / (p - 1.0))
    return k1, k2, cap


def admissible_range(n: int, p: float, mu: float) -> tuple[float, float]:
    """Decay interval [k1, k2] of the encoded global-existence results.

    The case table is closed: combinations of (n, mu) that are not
    documented raise UncoveredCaseError rather than interpolating.
    """
    if n < 2:
        raise ValueError(f"admissible_range requires n >= 2, got {n}")
    if not p > 1:
        raise ValueError(f"admissible_range requires p > 1, got {p}")
    k1, k2, _ = _case_with_cap(n, p, mu)
    return k1, k2


_T1_CONSTRAINTS = ("kbar + mu/2 > 0", "nu <= (mu/2)(mu/2 - 1)", "p < p_F(kbar + mu/2)")


def _conditions(params: ModelParams) -> tuple[dict[str, tuple], dict[str, bool]]:
    """Every condition of both routes, in the order they are reported: each
    blow-up hypothesis that `params` fails, mapped to the terms of its failed
    relation (the p_F test needs h > 0); then, only if one fails, each
    global-existence condition, mapped to whether it holds."""
    h, nu_crit = _shifted_decay(params.kbar, params.mu), _critical_mass(params.mu)
    failed = {}
    if not h > 0:
        failed[_T1_CONSTRAINTS[0]] = (h,)
    if not nu_crit >= params.nu:
        failed[_T1_CONSTRAINTS[1]] = (params.nu, ">", nu_crit)
    if h > 0 and not params.p < fujita(h):
        failed[_T1_CONSTRAINTS[2]] = (params.p, ">=", fujita(h))
    if not failed:
        return failed, {}

    p, mu, nu, kbar, n = params.p, params.mu, params.nu, params.kbar, params.n
    mass_ok = nu == nu_crit and nu_crit >= 0.0
    damping_ok = 2.0 <= mu <= mu_max(n)
    ge = {"nu = (mu/2)(mu/2 - 1) >= 0": mass_ok, "2 <= mu <= M(n)": damping_ok}
    if mass_ok and damping_ok:
        try:
            k1, k2, cap = _case_with_cap(n, p, mu)
        except UncoveredCaseError:
            ge["documented (n, mu) case"] = False
        else:
            if kbar > k2:
                ge["kbar > k2: reduced to k2"] = True
            ge["kbar >= k1(n, p, mu)"] = min(kbar, k2) >= k1
            ge["p > p_S(n + mu)"] = p > strauss(n + mu)
            ge["p > p_F(kbar + mu/2)"] = h > 0 and p > fujita(h)
            if cap is not None:
                ge.update([cap])
    return failed, ge


def _alpha(params: ModelParams) -> float:
    return 2.0 * (params.p - 1.0) / (4.0 - (params.mu + 2.0 * params.kbar) * (params.p - 1.0))


def lifespan_exponent(params: ModelParams) -> float:
    """Exponent alpha of the lifespan bound T(eps) <= C eps^(-alpha),

        alpha = 2 (p-1) / (4 - (mu + 2 kbar)(p-1)),

    valid under the blow-up hypotheses; raises HypothesisError naming the
    first failed hypothesis otherwise.  Identical to
    1 / (2/(p-1) - mu/2 - kbar).
    """
    failed, _ = _conditions(params)
    if failed:
        hypothesis, values = next(iter(failed.items()))
        raise HypothesisError(f"{hypothesis} fails: {' '.join(map(str, values))}")
    return _alpha(params)


def classify(params: ModelParams) -> RegionVerdict:
    """Classify a parameter point as blow-up, known global existence, or
    unknown.

    Blow-up requires the three strict hypotheses named in the verdict.
    Global existence requires the exact mass matching
    nu = (mu/2)(mu/2 - 1) >= 0, damping in [2, M(n)], p strictly above both
    critical powers and below the case's cap, and a decay parameter
    reaching the admissible interval (kbar above k2 is downgraded to k2,
    since faster decay satisfies the slower-decay hypothesis).  Points on
    a boundary curve are Unknown: nothing is proved there.
    """
    failed, ge = _conditions(params)
    if not failed:
        return RegionVerdict(kind=Verdict.BLOW_UP, lifespan_exponent=_alpha(params), active_constraints=_T1_CONSTRAINTS)
    if all(ge.values()):
        return RegionVerdict(kind=Verdict.GLOBAL_EXISTENCE, lifespan_exponent=None, active_constraints=tuple(ge))
    blocked = tuple(f"no blow-up: {c}" for c in failed) + tuple(f"no global existence: {c}" for c, holds in ge.items() if not holds)
    return RegionVerdict(kind=Verdict.UNKNOWN, lifespan_exponent=None, active_constraints=blocked)


GridLike = Union[Sequence[float], tuple[float, float, int], np.ndarray]


def _as_grid(spec: GridLike, name: str) -> np.ndarray:
    """Accept either an explicit value sequence or a (lo, hi, count) range, strictly increasing."""
    if isinstance(spec, tuple) and len(spec) == 3 and isinstance(spec[2], (int, np.integer)):
        lo, hi, count = spec
        values = np.linspace(float(lo), float(hi), max(int(count), 0))  # count <= 0: empty, rejected below
    else:
        values = np.asarray(spec, dtype=float)
    if values.size == 0:
        raise ValueError(f"{name}: empty grid")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name}: grid values must be finite")
    if not np.all(np.diff(values) > 0):  # _render puts cell edges at the midpoints
        raise ValueError(f"{name}: grid values must be strictly increasing")
    return values


def _open_text(target):
    """A path opens a new UTF-8 text file that the block closes; an open
    text handle is written to and left open."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return open(target, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(target)


@dataclass(frozen=True)
class AtlasResult:
    """Verdict grid over a (kbar, p) rectangle.

    verdicts[i, j] classifies (kbar_values[i], p_values[j]); alphas holds
    the lifespan exponent at blow-up nodes and NaN elsewhere.
    """

    n: int
    mu: float
    nu: float
    kbar_values: np.ndarray
    p_values: np.ndarray
    verdicts: np.ndarray
    alphas: np.ndarray

    def verdict_counts(self) -> dict[str, int]:
        flat = self.verdicts.ravel()
        return {v.value: int(np.sum(flat == v.value)) for v in Verdict}

    def to_csv(self, target) -> None:
        """Write rows (kbar, p, verdict, alpha-or-blank); kbar varies slowest."""
        with _open_text(target) as fh:
            fh.write("kbar,p,verdict,alpha\n")
            ps = [f"{p:.12g}" for p in self.p_values]
            for k, verdicts, alphas in zip(self.kbar_values, self.verdicts, self.alphas):
                k = f"{k:.12g}"
                fh.write("".join(
                    f"{k},{p},{v},{a:.12g}\n" if math.isfinite(a) else f"{k},{p},{v},\n"
                    for p, v, a in zip(ps, verdicts, alphas.tolist())
                ))


def atlas(n: int, mu: float, nu: float, k_grid: GridLike, p_grid: GridLike) -> AtlasResult:
    """Classify every node of a (kbar, p) grid.

    Grid nodes must satisfy kbar > -1 and p > 1 (parameter domain).
    """
    kbar_values = _as_grid(k_grid, "k_grid")
    p_values = _as_grid(p_grid, "p_grid")
    if not np.all(kbar_values > -1):
        raise ValueError("k_grid: all kbar values must be > -1")
    if not np.all(p_values > 1):
        raise ValueError("p_grid: all p values must be > 1")

    verdicts = np.empty((kbar_values.size, p_values.size), dtype=object)
    alphas = np.full((kbar_values.size, p_values.size), math.nan)
    for i, k in enumerate(kbar_values):
        for j, p in enumerate(p_values):
            v = classify(ModelParams(n=n, mu=mu, nu=nu, p=float(p), kbar=float(k)))
            verdicts[i, j] = v.kind.value
            if v.lifespan_exponent is not None:
                alphas[i, j] = v.lifespan_exponent

    return AtlasResult(n, mu, nu, kbar_values, p_values, verdicts, alphas)
