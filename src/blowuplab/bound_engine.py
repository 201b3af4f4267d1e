"""Lower-bound iteration machinery and the explicit lifespan constant.

Inside the spacetime region

    Sigma_delta = {(t, r) : r - t >= max(2 t / delta_m, delta)},

positive radial data produce the seed estimate

    u(t, r) >= C0 t^(m+1) / (r^m (r+t)^(kbar+1)),
    C0 = eps 2^(m-2) M delta_m^(-m) (delta/(1+delta))^(kbar+1),

with m = floor(n/2), and feeding any such estimate through the Duhamel
term tightens it to the same shape with updated exponents and constant:

    a' = p (a - mu/2) + 2 + mu/2,
    b' = p b + m (p - 1),
    C' = (C/2)^p / (2 (p a + 2)^2),

seeded by (a1, b1, C1) = (m+1, kbar+1, C0).  C_k behaves like
exp(+-p^k), so the constant is carried as log C_k throughout.  With
a_k = A p^(k-1) + B the explicit minimand is

    p^(2k) / (2^(p+1) (p a_k + 2)^2) = 1 / (2^(p+1) (A + (p B + 2) p^(-k))^2).

For A > 0 the a_k increase from a_1 = m + 1 > 0, so the bracket
(p a_k + 2) p^(-k) stays positive while its p^(-k) term has one sign:
the minimand is monotone in k and its infimum over k >= 1 is

    K = min(minimand(1), 1 / (2^(p+1) A^2)).

Then C_(k+1) >= K C_k^p / p^(2k), which unrolls to

    log C_(k+1) >= p^k (log C0 - S(k)),
    S(k) = sum_(j=1..k) (j log p^2 - log K) / p^j,

and S(k) is dominated by its limit, a pair of geometric series:

    S_limit = log p^2 x / (1-x)^2 - log K x / (1-x),   x = 1/p.

Positivity of

    J(t, r) = log C0 - S_limit + (m + 1 - mu/2 + 2/(p-1)) log t
              - (kbar + 1 + m) log(r + t)

at a single Sigma_delta point with t > 1 makes the envelope diverge
doubly exponentially, which yields the lifespan bound

    T(eps) <= C eps^(-1/(2/(p-1) - mu/2 - kbar)),

with C explicit in (p, mu, m, kbar, M, delta_m, eps) and delta = 2T/delta_m.

`free_lower_bound` and `verify_iteration_step` are quadrature oracles:
they evaluate the underlying integrals numerically (Gauss-Legendre rules
in numpy: adaptive panels in 1-D, a tensor rule on the mapped triangle in
2-D) and check the claimed inequalities pointwise, independent of the
closed-form path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._quadrature import integrate, integrate_triangle
from .exponents import HypothesisError, ModelParams, _weight_exponent, lifespan_exponent

__all__ = [
    "BoundConfig",
    "IterationState",
    "LifespanBound",
    "IterationStepReport",
    "in_sigma",
    "seed_constant",
    "initial_state",
    "iterate",
    "closed_form",
    "derive_K",
    "J",
    "lifespan_upper_bound",
    "free_lower_bound",
    "verify_iteration_step",
]


@dataclass(frozen=True)
class BoundConfig:
    """Parameters plus the two region constants of the estimate machinery.

    delta_m is NOT computed here: it is the dimension-dependent constant of
    the pointwise free-wave estimate, supplied by the user, and every bound
    is conditional on it.  delta sets Sigma_delta for `in_sigma`, `J` and
    the oracles; `lifespan_upper_bound` does not read it.
    """

    params: ModelParams
    delta: float = 1.0
    delta_m: float = 1.0

    def __post_init__(self) -> None:
        for name in ("delta", "delta_m"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class IterationState:
    """One rung (a_k, b_k, log C_k) of the lower-bound ladder."""

    k: int
    a: float
    b: float
    logC: float


@dataclass(frozen=True)
class LifespanBound:
    """T(eps) <= T_upper = C eps^(-exponent), certified by J at delta = 2 T_upper/delta_m (inf
    beyond the float range), where the seed constant is C0 (at the largest float if inf).
    K and S_limit are `derive_K`'s; the bound holds for the given delta_m only: conditional."""

    C: float
    exponent: float
    T_upper: float
    K: float
    S_limit: float
    delta: float
    C0: float
    delta_m: float
    conditional: bool


def in_sigma(t: float, r: float, cfg: BoundConfig) -> bool:
    """Membership in Sigma_delta: r - t >= max(2 t / delta_m, delta)."""
    if not t > 0 or not r > 0:
        raise ValueError(f"in_sigma requires t > 0 and r > 0, got t={t}, r={r}")
    return r - t >= max(2.0 * t / cfg.delta_m, cfg.delta)


def _log_seed_factor(cfg: BoundConfig, delta: float) -> float:
    """log(C0/eps) = log(2^(m-2) M delta_m^(-m) (delta/(1+delta))^(kbar+1)); finite at delta = inf."""
    P = cfg.params
    return (
        (P.m - 2) * math.log(2.0)
        + math.log(P.M)
        - P.m * math.log(cfg.delta_m)
        - (P.kbar + 1.0) * math.log1p(1.0 / delta)
    )


def seed_constant(cfg: BoundConfig) -> float:
    """log C0 with C0 = eps 2^(m-2) M delta_m^(-m) (delta/(1+delta))^(kbar+1)."""
    return math.log(cfg.params.eps) + _log_seed_factor(cfg, cfg.delta)


def initial_state(cfg: BoundConfig) -> IterationState:
    """Seed rung (a1, b1, log C1) = (m+1, kbar+1, log C0)."""
    P = cfg.params
    return IterationState(k=1, a=P.m + 1.0, b=P.kbar + 1.0, logC=seed_constant(cfg))


def iterate(state: IterationState, cfg: BoundConfig) -> IterationState:
    """Advance one rung; the constant update runs entirely in log space."""
    if state.k < 1:
        raise ValueError(f"iteration index must be >= 1, got {state.k}")
    P = cfg.params
    p, mu, m = P.p, P.mu, P.m
    a_next = p * (state.a - mu / 2.0) + 2.0 + mu / 2.0
    b_next = p * state.b + m * (p - 1.0)
    logC_next = p * (state.logC - math.log(2.0)) - math.log(2.0) - 2.0 * math.log(p * state.a + 2.0)
    return IterationState(k=state.k + 1, a=a_next, b=b_next, logC=logC_next)


def _growth_coefficients(cfg: BoundConfig) -> tuple[float, float]:
    """(A, B) with a_k = A p^(k-1) + B; A = m + 1 - mu/2 + 2/(p-1)."""
    P = cfg.params
    A = P.m + 1.0 - P.mu / 2.0 + 2.0 / (P.p - 1.0)
    B = P.mu / 2.0 - 2.0 / (P.p - 1.0)
    return A, B


def closed_form(k: int, cfg: BoundConfig) -> tuple[float, float]:
    """(a_k, b_k) in closed form; k = 1 returns the seeds exactly."""
    if k < 1:
        raise ValueError(f"closed_form requires k >= 1, got {k}")
    P = cfg.params
    A, B = _growth_coefficients(cfg)
    pk = P.p ** (k - 1)
    a = A * pk + B
    b = (P.kbar + 1.0 + P.m) * pk - P.m
    return a, b


def derive_K(cfg: BoundConfig) -> tuple[float, float]:
    """(K, S_limit) in closed form.

    The minimand p^(2k) / (2^(p+1) (p a_k + 2)^2) equals
    1 / (2^(p+1) (A + (p B + 2) p^(-k))^2).  For A > 0 the bracket is
    positive for every k >= 1 and moves monotonically towards A, so the
    infimum over k is the smaller of the k = 1 value and the limit
    1 / (2^(p+1) A^2).  S_limit = sum_(j>=1) (j log p^2 - log K) x^j with
    x = 1/p sums to log p^2 x/(1-x)^2 - log K x/(1-x).
    """
    p = cfg.params.p
    A, B = _growth_coefficients(cfg)
    if not A > 0:
        raise HypothesisError(
            f"iteration growth coefficient m + 1 - mu/2 + 2/(p-1) must be positive, got {A}"
        )
    scale = 2.0 ** (p + 1.0)
    K = min(1.0 / (scale * (A + (p * B + 2.0) / p) ** 2), 1.0 / (scale * A * A))
    x = 1.0 / p
    S = math.log(p * p) * x / (1.0 - x) ** 2 - math.log(K) * x / (1.0 - x)
    return K, S


def J(t: float, r: float, cfg: BoundConfig) -> float:
    """Divergence functional; J > 0 at a Sigma_delta point forces blow-up.

    Requires t > 1 (the standing assumption of the estimate chain).
    """
    if not t > 1:
        raise ValueError(f"J requires t > 1, got {t}")
    if not r > 0:
        raise ValueError(f"J requires r > 0, got {r}")
    P = cfg.params
    A, _ = _growth_coefficients(cfg)
    return seed_constant(cfg) - derive_K(cfg)[1] + A * math.log(t) - (P.kbar + 1.0 + P.m) * math.log(r + t)


_FLOAT_MAX = math.nextafter(math.inf, 0.0)
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)


def _log_T_upper(cfg: BoundConfig, S_limit: float, alpha: float) -> float:
    """max(x, 0), x the root of J(e^x, e^x (1 + 2/delta_m)) = 0 at delta = 2 e^x/delta_m:
    x = L + c log(1 + (delta_m/2) e^(-x)), c = (kbar + 1) alpha, L = log T_inf the root as
    delta -> inf.  f(x) = x - RHS is increasing and concave; L and (L + c log(delta_m/2))/(1 + c)
    lie left of its root, and so does 0 unless f(0) >= 0, where Newton stops at once.  From
    the left, Newton's iterates rise monotonically to the root."""
    P = cfg.params
    L = alpha * (S_limit - _log_seed_factor(cfg, math.inf) + (1.0 + P.kbar + P.m) * math.log(2.0 + 2.0 / cfg.delta_m) - math.log(P.eps))
    c, d = (P.kbar + 1.0) * alpha, cfg.delta_m / 2.0
    x, x_prev = max(L, (L + c * math.log(d)) / (1.0 + c), 0.0), -math.inf
    while x > x_prev:  # stops at the last rising iterate, where x - RHS >= 0
        u = d * math.exp(-x)  # 1/delta
        x_prev, x = x, x - (x - L - c * math.log1p(u)) / (1.0 + c * u / (1.0 + u))
    return x_prev


def lifespan_upper_bound(cfg: BoundConfig) -> LifespanBound:
    """T(eps) <= T_upper = C eps^(-exponent), exponent = `lifespan_exponent`, with delta at
    its fixed point 2 T_upper/delta_m, the best bound that J certifies (cfg.delta is not
    read); T_upper >= 1, as J needs t > 1.  C = T_upper eps^exponent depends on eps; C and
    C0 are inf where only they leave the float range.  Preconditions: the hypotheses of
    `classify`'s BlowUpTheorem1.  A T_upper beyond the float range raises OverflowError
    naming log T_upper."""
    P = cfg.params
    exponent = lifespan_exponent(P)  # raises HypothesisError outside the blow-up region
    K, S_limit = derive_K(cfg)
    log_T = _log_T_upper(cfg, S_limit, exponent)
    if log_T > _LOG_FLOAT_MAX:
        raise OverflowError(f"math range error: T_upper is beyond the float range, log T_upper = {log_T:.6g}")
    T_upper = math.exp(log_T)
    delta = 2.0 * T_upper / cfg.delta_m
    log_C0 = math.log(P.eps) + _log_seed_factor(cfg, min(delta, _FLOAT_MAX))
    log_C = log_T + exponent * math.log(P.eps)
    C0, C = (math.exp(x) if x <= _LOG_FLOAT_MAX else math.inf for x in (log_C0, log_C))
    # conditional: delta_m, the constant of the free-wave estimate, is an input, not derived here
    return LifespanBound(
        C=C, exponent=exponent, T_upper=T_upper, K=K, S_limit=S_limit, delta=delta, C0=C0, delta_m=cfg.delta_m, conditional=True
    )


def free_lower_bound(t: float, r: float, cfg: BoundConfig) -> float:
    """Quadrature evaluation of the free-wave floor

        eps/(8 r^m) * integral_(r-t)^(r+t) s^m M (1+s)^(-(kbar+1)) ds

    at a Sigma_delta point (relative quadrature error < 1e-10)."""
    if not in_sigma(t, r, cfg):
        raise ValueError(f"(t, r) = ({t}, {r}) lies outside Sigma_delta")
    P = cfg.params
    m, kb = P.m, P.kbar
    integral = integrate(lambda s: s**m * (1.0 + s) ** (-(kb + 1.0)), r - t, r + t, rtol=1e-10).item()
    return P.eps * P.M / (8.0 * r**m) * integral


@dataclass(frozen=True)
class IterationStepReport:
    """Pointwise oracle results: LHS/RHS ratios of one iteration step."""

    samples: tuple[tuple[float, float], ...]
    ratios: tuple[float, ...]
    worst_ratio: float
    slack: float
    passed: bool


_STEP_SLACK = 1e-6  # the relative shortfall below 1 that a step ratio may show


def verify_iteration_step(
    state: IterationState, samples: list[tuple[float, float]], cfg: BoundConfig
) -> IterationStepReport:
    """Check one rung of the ladder against 2-D quadrature.

    Plugs the current envelope C t^a / (r^m (r+t)^b) into the Duhamel
    term,

        1/(8 r^m) int_0^t int_(r-t+tau)^(r+t-tau)
            s^m (1+tau)^(-mu(p-1)/2) [C tau^a / (s^m (s+tau)^b)]^p ds dtau,

    and requires the result to dominate the next envelope
    C' t^a' / (r^m (r+t)^b'), the rung that `iterate` returns, so the
    check covers the package's own update.  Ratios are computed with C
    scaled out as C^p / C' = exp(p log C - log C'), so the integrals never
    carry the doubly exponential constant.  Samples must lie in
    Sigma_delta with t > 1.  The quadrature runs to a fixed relative
    tolerance of 1e-8.  A ratio below 1 - _STEP_SLACK beyond that tolerance
    falsifies the implementation, not the estimate.
    """
    P = cfg.params
    p, m = P.p, P.m
    a, b = state.a, state.b
    w = _weight_exponent(P.mu, p)
    nxt = iterate(state, cfg)
    const_ratio = math.exp(p * state.logC - nxt.logC)  # C^p / C'

    for t, r in samples:
        if not t > 1:
            raise ValueError(f"sample t must be > 1, got {t}")
        if not in_sigma(t, r, cfg):
            raise ValueError(f"sample (t, r) = ({t}, {r}) lies outside Sigma_delta")

    def integrand(s, tau):
        return s ** (m * (1.0 - p)) * (s + tau) ** (-p * b) * tau ** (p * a) * (1.0 + tau) ** (-w)

    integrals = integrate_triangle(integrand, samples, rtol=1e-8).tolist()
    ratios = [i / 8.0 * const_ratio * (r + t) ** nxt.b / t**nxt.a for i, (t, r) in zip(integrals, samples)]
    worst = min(ratios)
    return IterationStepReport(
        samples=tuple(samples),
        ratios=tuple(ratios),
        worst_ratio=worst,
        slack=_STEP_SLACK,
        passed=worst >= 1.0 - _STEP_SLACK,
    )
