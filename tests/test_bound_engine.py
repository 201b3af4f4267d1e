import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import bound_engine
from blowuplab.bound_engine import (
    BoundConfig,
    IterationState,
    J,
    closed_form,
    derive_K,
    free_lower_bound,
    in_sigma,
    initial_state,
    iterate,
    lifespan_upper_bound,
    seed_constant,
    verify_iteration_step,
)
from blowuplab.exponents import HypothesisError, ModelParams, Verdict, classify, lifespan_exponent


def make_cfg(n=3, mu=2.0, p=2.0, kbar=0.5, M=1.0, eps=1.0, delta=1.0, delta_m=1.0, nu=0.0):
    return BoundConfig(
        params=ModelParams(n=n, mu=mu, nu=nu, p=p, kbar=kbar, M=M, eps=eps),
        delta=delta,
        delta_m=delta_m,
    )


def random_valid_cfg(rng, n_max=8):
    """Parameters in the blow-up region: nu = (mu/2)(mu/2 - 1),
    kbar + mu/2 > 0 and -1 < kbar < 2/(p-1) - mu/2."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        mu = float(rng.uniform(0.0, 4.0))
        p = float(rng.uniform(1.1, 3.0))
        hi = 2.0 / (p - 1.0) - mu / 2.0
        if hi <= -0.9:
            continue
        kbar = float(rng.uniform(max(-0.9, hi - 3.0), hi - 0.01 * (hi + 1.0)))
        if not -1.0 < kbar < hi or not kbar + mu / 2.0 > 0:
            continue
        return make_cfg(
            n=n,
            mu=mu,
            p=p,
            kbar=kbar,
            nu=0.25 * mu * (mu - 2.0),
            M=float(rng.uniform(0.1, 10.0)),
            eps=float(rng.uniform(0.1, 10.0)),
            delta=float(rng.uniform(0.2, 3.0)),
            delta_m=float(rng.uniform(0.3, 3.0)),
        )


class TestInSigma:
    def test_inside(self):
        assert in_sigma(1.0, 3.5, make_cfg()) is True

    def test_outside(self):
        assert in_sigma(1.0, 2.9, make_cfg()) is False

    def test_on_light_cone(self):
        cfg = make_cfg()
        for t in (0.1, 1.0, 7.0):
            assert in_sigma(t, t, cfg) is False

    def test_preconditions(self):
        with pytest.raises(ValueError):
            in_sigma(0.0, 1.0, make_cfg())
        with pytest.raises(ValueError):
            in_sigma(1.0, -1.0, make_cfg())


class TestSeedConstant:
    def test_hand_value(self):
        cfg = make_cfg(n=2, mu=0.0, p=2.0, kbar=0.0, M=4.0, eps=1.0, delta=1.0, delta_m=2.0)
        assert math.exp(seed_constant(cfg)) == pytest.approx(0.5, rel=1e-14)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_linear_in_eps(self, eps):
        base = seed_constant(make_cfg(eps=1.0))
        assert seed_constant(make_cfg(eps=eps)) == pytest.approx(base + math.log(eps), abs=1e-10)

    def test_large_delta_limit(self):
        cfg = make_cfg(n=2, mu=0.0, p=2.0, kbar=0.0, M=4.0, eps=1.0, delta=1e12, delta_m=2.0)
        m = cfg.params.m
        limit = cfg.params.eps * 2.0 ** (m - 2) * cfg.params.M / cfg.delta_m**m
        assert math.exp(seed_constant(cfg)) == pytest.approx(limit, rel=1e-9)


class TestIteration:
    def test_a_update(self):
        cfg = make_cfg(n=3, mu=2.0, p=2.0, kbar=1.0)
        s2 = iterate(initial_state(cfg), cfg)
        assert s2.a == pytest.approx(5.0)

    def test_b_update(self):
        cfg = make_cfg(n=3, mu=2.0, p=2.0, kbar=1.0)
        s2 = iterate(initial_state(cfg), cfg)
        assert s2.b == pytest.approx(5.0)

    def test_constant_update(self):
        cfg = make_cfg(n=3, mu=2.0, p=2.0, kbar=1.0)
        s = IterationState(k=1, a=2.0, b=2.0, logC=0.0)
        s2 = iterate(s, cfg)
        assert math.exp(s2.logC) == pytest.approx(1.0 / 288.0, rel=1e-13)

    def test_closed_form_seeds(self):
        cfg = make_cfg(n=5, mu=1.3, p=1.7, kbar=0.2)
        a1, b1 = closed_form(1, cfg)
        assert a1 == pytest.approx(cfg.params.m + 1.0)
        assert b1 == pytest.approx(cfg.params.kbar + 1.0)

    def test_closed_form_matches_iterate_k2(self):
        cfg = make_cfg(n=3, mu=2.0, p=2.0, kbar=1.0)
        a2, b2 = closed_form(2, cfg)
        assert (a2, b2) == pytest.approx((5.0, 5.0))

    def test_recursion_vs_closed_form_battery(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg = random_valid_cfg(rng)
            state = initial_state(cfg)
            for k in range(2, 31):
                state = iterate(state, cfg)
                a, b = closed_form(k, cfg)
                assert abs(state.a - a) <= 1e-10 * max(1.0, abs(a))
                assert abs(state.b - b) <= 1e-10 * max(1.0, abs(b))


class TestDeriveK:
    def test_hand_value(self):
        # p=2, mu=2, m=1: minimand is constant in k, K = 1/72
        cfg = make_cfg(n=3, mu=2.0, p=2.0, kbar=0.5)
        K, _ = derive_K(cfg)
        assert K == pytest.approx(1.0 / 72.0, rel=1e-13)

    def test_nonpositive_growth_coefficient_rejected(self):
        # A = m + 1 - mu/2 + 2/(p-1) = 1 + 1 - 5 + 1 = -2 for n=3, mu=10, p=3
        with pytest.raises(HypothesisError, match=re.escape("must be positive, got -2.0")):
            derive_K(make_cfg(n=3, mu=10.0, p=3.0, kbar=0.5))

    def test_defining_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            cfg = random_valid_cfg(rng)
            K, _ = derive_K(cfg)
            p = cfg.params.p
            state = initial_state(cfg)
            for _ in range(40):
                nxt = iterate(state, cfg)
                lhs = nxt.logC
                rhs = math.log(K) + p * state.logC - 2.0 * state.k * math.log(p)
                assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))
                state = nxt

    def test_series_matches_geometric_closed_form(self):
        # references built here from the definitions: K as a brute-force
        # minimum over k <= 2000 plus the tail limit, S_limit as a partial
        # sum of its series
        rng = np.random.default_rng(17)
        for _ in range(50):
            cfg = random_valid_cfg(rng)
            K, S_limit = derive_K(cfg)
            P = cfg.params
            p, m = P.p, P.m
            # minimand p^(2k) / (2^(p+1) (p a_k + 2)^2) from the recursion for
            # a_k, carried as c = a_k p^(-k) and q = p^(-k) so nothing overflows
            minimand = []
            c, q = (m + 1.0) / p, 1.0 / p
            for _ in range(2000):
                minimand.append(1.0 / (2.0 ** (p + 1.0) * (p * c + 2.0 * q) ** 2))
                c += (2.0 + P.mu / 2.0 - p * P.mu / 2.0) * q / p
                q /= p
            A = m + 1.0 - P.mu / 2.0 + 2.0 / (p - 1.0)
            K_ref = min(min(minimand), 1.0 / (2.0 ** (p + 1.0) * A * A))
            assert K == pytest.approx(K_ref, rel=1e-12)
            S_ref = math.fsum((j * math.log(p * p) - math.log(K)) * p ** (-j) for j in range(1, 20001))
            assert S_limit == pytest.approx(S_ref, rel=1e-12)

    def test_unrolled_log_bound(self):
        cfg = make_cfg(n=3, mu=2.0, p=2.0, kbar=0.5)
        _, S_limit = derive_K(cfg)
        state = initial_state(cfg)
        for k in range(1, 31):
            state = iterate(state, cfg)
            rhs = cfg.params.p**k * (seed_constant(cfg) - S_limit)
            assert state.logC >= rhs - 1e-9 * max(1.0, abs(rhs))

    # formed in floats, 2^(p+1) A^2 overflowed at p = 1022 (K read 0 and log K
    # raised) and 2^(p+1) itself at p = 1023; K is now formed in log space
    @pytest.mark.parametrize("p", [3.0, 1022.0, 1023.0, 1100.0, 5000.0])
    def test_matches_a_high_precision_minimum(self, p):
        # references built at 50 digits from the definitions: K the minimum of
        # the minimand over k <= 40 and its limit, S_limit the sum of its series
        import mpmath

        cfg = make_cfg(n=3, mu=0.0, p=p, kbar=1e-4)
        K, S_limit = derive_K(cfg)
        mp = mpmath.mp
        with mpmath.workdps(50):
            pm, m = mp.mpf(p), cfg.params.m
            a, minimand = mp.mpf(m + 1), []
            for k in range(1, 41):  # a_(k+1) = p a_k + 2 at mu = 0
                minimand.append(pm ** (2 * k) / (2 ** (pm + 1) * (pm * a + 2) ** 2))
                a = pm * a + 2
            K_ref = min(*minimand, 1 / (2 ** (pm + 1) * (m + 1 + 2 / (pm - 1)) ** 2))
            S_ref = mpmath.nsum(lambda j: (j * mp.log(pm**2) - mp.log(K_ref)) * pm ** (-j), [1, mpmath.inf])
        assert K == pytest.approx(float(K_ref), rel=1e-12, abs=0.0)
        assert (K == 0.0) == (p >= 1100.0)
        assert S_limit == pytest.approx(float(S_ref), rel=1e-12)

    @pytest.mark.parametrize("p", [1.1, 1.01, 1.001])
    def test_p_near_one_gives_finite_bound(self, p):
        cfg = make_cfg(n=3, mu=0.0, p=p, kbar=0.5)
        K, S_limit = derive_K(cfg)
        assert 0.0 < K < math.inf
        assert math.isfinite(S_limit)
        bound = lifespan_upper_bound(cfg)
        assert 0.0 < bound.C < math.inf
        assert 0.0 < bound.T_upper < math.inf


class TestJ:
    def test_requires_t_above_one(self):
        with pytest.raises(ValueError):
            J(0.5, 3.0, make_cfg())

    def test_unit_slope_in_logC0(self):
        cfg1 = make_cfg(eps=1.0)
        cfg2 = make_cfg(eps=math.e)  # logC0 shifted by exactly 1
        assert J(3.0, 10.0, cfg2) - J(3.0, 10.0, cfg1) == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_in_r(self):
        cfg = make_cfg()
        vals = [J(3.0, r, cfg) for r in np.linspace(9.5, 40.0, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ray_sign_governed_by_exponent_denominator(self):
        # positive denominator: J eventually positive on the ray
        cfg = make_cfg(p=2.0, mu=2.0, kbar=0.5)
        ray = lambda t: t + max(2.0 * t / cfg.delta_m, cfg.delta)
        # the sign flips only beyond the (large) certified threshold
        assert J(1e12, ray(1e12), cfg) > 0
        # negative denominator: eventually negative
        cfg2 = make_cfg(p=2.0, mu=2.0, kbar=1.5)  # 2/(p-1)-mu/2 = 1 < kbar
        assert J(1e12, ray(1e12), cfg2) < 0


class TestLifespanUpperBound:
    def test_exponent_matches_exponents_module(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            cfg = random_valid_cfg(rng)
            bound = lifespan_upper_bound(cfg)
            alpha = lifespan_exponent(cfg.params)
            assert bound.exponent == alpha

    def test_eps_scaling_tends_to_the_power_law(self):
        # T = T_inf (1 + delta_m/(2T))^((kbar+1) alpha) with T_inf ~ eps^(-alpha):
        # at T ~ 5e9 the delta factor moves the ratio by about 1e-10, and C =
        # T eps^alpha rises with eps
        b1 = lifespan_upper_bound(make_cfg(eps=1.0))
        b2 = lifespan_upper_bound(make_cfg(eps=2.0))
        assert b1.T_upper == pytest.approx(5.4358e9, rel=1e-4)
        assert b2.T_upper / b1.T_upper == pytest.approx(2.0 ** (-b1.exponent), rel=1e-9)
        assert b1.C < b2.C

    def test_M_scaling(self):
        b1 = lifespan_upper_bound(make_cfg(M=1.0))
        b2 = lifespan_upper_bound(make_cfg(M=2.0))
        denom = 2.0 / (2.0 - 1.0) - 1.0 - 0.5  # 2/(p-1) - mu/2 - kbar
        assert b2.C / b1.C == pytest.approx(2.0 ** (-1.0 / denom), rel=1e-9)

    # log T_upper is 2 581 at p = 2.33 and eps = 1, and 734 and 1 033 at
    # p = 2.30 and eps = 1e-8 and 1e-13, beyond log(float max) = 709.78
    @pytest.mark.parametrize("p, eps", [(2.33, 1.0), (2.30, 1e-8), (2.30, 1e-13)])
    def test_beyond_the_float_range_names_log_T_upper(self, p, eps):
        with pytest.raises(OverflowError, match=r"^math range error: .*log T_upper = ") as info:
            lifespan_upper_bound(make_cfg(p=p, eps=eps))
        log_T = float(str(info.value).rsplit("= ", 1)[1])
        assert log_T > math.log(sys.float_info.max)
        if p == 2.30:  # C is finite at eps = 1, and log T_upper = log C - exponent log eps
            bound = lifespan_upper_bound(make_cfg(p=p))
            assert log_T == pytest.approx(math.log(bound.C) - bound.exponent * math.log(eps), rel=1e-5)

    def test_finite_bound_is_C_times_the_eps_power(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            cfg = random_valid_cfg(rng)
            try:
                bound = lifespan_upper_bound(cfg)
            except OverflowError:
                continue
            assert math.isfinite(bound.C) and 1.0 <= bound.T_upper < math.inf
            assert bound.T_upper == pytest.approx(bound.C * cfg.params.eps ** (-bound.exponent), rel=1e-12)

    def test_seed_constant_beyond_the_float_range_is_inf(self):
        # like C, C0 leaves the float range on its own: the bound itself stands
        bound = lifespan_upper_bound(make_cfg(M=1e10, eps=1e300))
        assert (bound.T_upper, bound.delta, bound.C0) == (1.0, 2.0, math.inf)

    def test_precondition_names_inequality(self):
        # the first failed hypothesis of the blow-up result is named
        for kw in (dict(kbar=1.0, p=2.0, mu=2.0), dict(mu=6.0, p=3.0, kbar=-0.9), dict(mu=2.0, p=3.0, kbar=0.5)):
            with pytest.raises(HypothesisError, match=re.escape("p < p_F(kbar + mu/2)")):
                lifespan_upper_bound(make_cfg(**kw))
        with pytest.raises(HypothesisError, match=re.escape("nu <= (mu/2)(mu/2 - 1)")):
            lifespan_upper_bound(make_cfg(n=3, mu=2.0, nu=5.0, p=1.5, kbar=0.5))
        with pytest.raises(HypothesisError, match=re.escape("kbar + mu/2 > 0")):
            lifespan_upper_bound(make_cfg(n=3, mu=0.0, nu=0.0, p=1.5, kbar=-0.5))

    @given(
        st.integers(min_value=2, max_value=7),
        st.floats(min_value=0.0, max_value=12.0),
        st.floats(min_value=-2.0, max_value=10.0),
        st.floats(min_value=1.01, max_value=4.0),
        st.floats(min_value=-0.99, max_value=4.0),
    )
    @settings(max_examples=300)
    def test_defined_exactly_where_classify_proves_blow_up(self, n, mu, nu, p, kbar):
        params = ModelParams(n=n, mu=mu, nu=nu, p=p, kbar=kbar)
        if classify(params).kind is not Verdict.BLOW_UP:
            with pytest.raises(HypothesisError):
                lifespan_exponent(params)
            with pytest.raises(HypothesisError):
                lifespan_upper_bound(BoundConfig(params=params))
            return
        alpha = lifespan_exponent(params)
        try:
            bound = lifespan_upper_bound(BoundConfig(params=params))
        except OverflowError as exc:  # T_upper beyond the float range near the Fujita curve
            assert str(exc).startswith("math range error: ")
            return
        assert bound.exponent == alpha

    def test_threshold_consistency_on_ray(self):
        # with delta = 2 T_upper/delta_m, J vanishes at (T_upper, T_upper (1 + 2/delta_m)),
        # and the smallest t > 1 on the ray r = t + max(2t/delta_m, delta) with J > 0 is T_upper:
        # below it the ray lies on its delta branch, where J is lower still
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 100:
            cfg0 = random_valid_cfg(rng, n_max=6)
            b0 = lifespan_upper_bound(cfg0)
            T_target = float(rng.uniform(2.0, 100.0))
            eps = (b0.C / T_target) ** (1.0 / b0.exponent)
            if not 1e-8 < eps < 1e8:
                continue
            cfg = dataclasses.replace(cfg0, params=dataclasses.replace(cfg0.params, eps=eps))
            bound = lifespan_upper_bound(cfg)
            if bound.T_upper == 1.0:
                continue
            cfg = dataclasses.replace(cfg, delta=2.0 * bound.T_upper / cfg.delta_m)
            T = bound.T_upper
            assert J(T, T * (1.0 + 2.0 / cfg.delta_m), cfg) == pytest.approx(0.0, abs=1e-12 * max(1.0, math.log(T)))
            ray = lambda t: t + max(2.0 * t / cfg.delta_m, cfg.delta)
            f = lambda t: J(t, ray(t), cfg)
            lo, hi = 1.0 + 1e-9, 4.0 * T
            assert f(lo) <= 0 < f(hi)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            assert 0.5 * (lo + hi) == pytest.approx(T, rel=1e-12, abs=0.0)
            checked += 1

    def test_certified_at_every_eps_and_never_worse_than_a_fixed_delta(self):
        # on random draws with T_upper > 1, J = 0 at the ray point with delta = 2 T_upper/delta_m;
        # wherever a fixed delta certified its own bound (2 T_delta/delta_m >= delta), the
        # new bound is no larger.  T_delta comes from J: on r = t (1 + 2/delta_m), J is affine
        # in log t with slope 1/alpha
        rng = np.random.default_rng(7)
        checked = compared = 0
        while checked < 1000:
            cfg = random_valid_cfg(rng)
            cfg = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, eps=float(10.0 ** rng.uniform(-3.0, 3.0))))
            try:
                bound = lifespan_upper_bound(cfg)
            except OverflowError:
                continue
            assert bound.T_upper >= 1.0
            if bound.T_upper == 1.0:
                continue
            T, a = bound.T_upper, bound.exponent
            ray = 1.0 + 2.0 / cfg.delta_m
            at_fixed_point = dataclasses.replace(cfg, delta=2.0 * T / cfg.delta_m)
            assert (bound.delta, bound.C0) == (at_fixed_point.delta, math.exp(seed_constant(at_fixed_point)))
            assert abs(J(T, T * ray, at_fixed_point)) <= 1e-12 * max(1.0, abs(math.log(T)))
            for delta in (0.25, 1.0, 4.0, 10.0):
                cfg_d = dataclasses.replace(cfg, delta=delta)
                log_T_d = 1.0 - a * J(math.e, math.e * ray, cfg_d)
                if log_T_d < math.log(sys.float_info.max) and 2.0 * math.exp(log_T_d) / cfg.delta_m >= delta:
                    assert T <= math.exp(log_T_d) * (1.0 + 1e-12)
                    compared += 1
            checked += 1
        assert compared > 1000

    def test_found_36_point(self):
        # at delta = 10 the old bound, 3.0, lay on the delta branch, where J < 0;
        # J first turns positive on that ray at 3.816
        bound = lifespan_upper_bound(make_cfg(n=3, mu=0.0, p=2.0, kbar=0.5, eps=29101.6))
        assert bound.T_upper == pytest.approx(3.159, abs=5e-4)

    def test_root_matches_an_independent_high_precision_solve(self):
        # the root of J(e^x, e^x (1 + 2/delta_m)) = 0 at delta = 2 e^x/delta_m, restated from
        # the formulas of the seed constant and J and solved at 50 digits
        import mpmath

        mp = mpmath.mp
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            cfg = random_valid_cfg(rng)
            cfg = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, eps=float(10.0 ** rng.uniform(-3.0, 3.0))))
            try:
                bound = lifespan_upper_bound(cfg)
            except OverflowError:
                continue
            P = cfg.params
            with mpmath.workdps(50):
                p, mu, kbar, m, dm, S = (mp.mpf(v) for v in (P.p, P.mu, P.kbar, P.m, cfg.delta_m, bound.S_limit))
                A = m + 1 - mu / 2 + 2 / (p - 1)

                def g(x):
                    delta = 2 * mp.exp(x) / dm
                    log_C0 = mp.log(P.eps) + (m - 2) * mp.log(2) + mp.log(P.M) - m * mp.log(dm) + (kbar + 1) * mp.log(delta / (1 + delta))
                    return log_C0 - S + A * x - (kbar + 1 + m) * (x + mp.log(2 + 2 / dm))

                expected = max(float(mp.findroot(g, mp.mpf(math.log(bound.T_upper)) + 1)), 0.0)
            assert math.log(bound.T_upper) == pytest.approx(expected, rel=1e-12, abs=1e-12 if expected == 0.0 else 0.0)
            checked += 1


class TestFreeLowerBound:
    def test_dominates_seed_estimate(self):
        cfg = make_cfg(p=1.8, kbar=0.5)
        C0 = math.exp(seed_constant(cfg))
        m = cfg.params.m
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = 0.1 + 10.0 * rng.random()
            r = t + max(2.0 * t / cfg.delta_m, cfg.delta) + 5.0 * rng.random()
            val = free_lower_bound(t, r, cfg)
            seed = C0 * t ** (m + 1) / (r**m * (r + t) ** (cfg.params.kbar + 1.0))
            assert val >= seed * (1.0 - 1e-9)

    def test_linear_in_eps_and_M(self):
        base = free_lower_bound(2.0, 8.0, make_cfg())
        assert free_lower_bound(2.0, 8.0, make_cfg(eps=3.0)) == pytest.approx(3.0 * base, rel=1e-9)
        assert free_lower_bound(2.0, 8.0, make_cfg(M=5.0)) == pytest.approx(5.0 * base, rel=1e-9)

    def test_monotone_in_t(self):
        cfg = make_cfg()
        r = 40.0
        vals = [free_lower_bound(t, r, cfg) for t in np.linspace(0.5, 9.0, 15)]
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))

    def test_outside_sigma_rejected(self):
        with pytest.raises(ValueError):
            free_lower_bound(5.0, 5.5, make_cfg())

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_against_scipy(self, n):
        from scipy.integrate import quad

        cfg = make_cfg(n=n, p=1.5, kbar=0.5, M=2.0, eps=0.5)
        m, kb = cfg.params.m, cfg.params.kbar
        rng = np.random.default_rng(n)
        for _ in range(20):
            t = 0.1 + 10.0 * rng.random()
            r = t + max(2.0 * t / cfg.delta_m, cfg.delta) + 20.0 * rng.random()
            integral = quad(lambda s: s**m * (1.0 + s) ** (-(kb + 1.0)), r - t, r + t, epsabs=0.0, epsrel=1e-13)[0]
            expected = cfg.params.eps * cfg.params.M / (8.0 * r**m) * integral
            assert free_lower_bound(t, r, cfg) == pytest.approx(expected, rel=1e-10)


class TestVerifyIterationStep:
    def _samples(self, cfg, count, seed=7):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            t = 1.0 + 9.0 * rng.random()
            r = t + max(2.0 * t / cfg.delta_m, cfg.delta) + 5.0 * rng.random()
            out.append((t, r))
        return out

    def test_seed_state_smoke(self):
        cfg = make_cfg(n=3, mu=2.0, p=2.0, kbar=0.5)
        report = verify_iteration_step(initial_state(cfg), self._samples(cfg, 5), cfg)
        assert report.passed
        assert report.worst_ratio >= 1.0 - 1e-6

    def test_undamped_chain(self):
        cfg = make_cfg(n=3, mu=0.0, p=2.0, kbar=0.5)
        report = verify_iteration_step(initial_state(cfg), self._samples(cfg, 5), cfg)
        assert report.passed

    def test_slackness_trend_recorded(self):
        # sanity record, not an assertion of direction: the margin stays
        # comfortably above 1 along the ray and varies smoothly with r - t
        cfg = make_cfg(n=3, mu=2.0, p=2.0, kbar=0.5)
        t = 2.0
        base = t + max(2.0 * t / cfg.delta_m, cfg.delta)
        report = verify_iteration_step(
            initial_state(cfg), [(t, base), (t, base + 5.0), (t, base + 20.0)], cfg
        )
        assert all(r >= 1.5 for r in report.ratios)

    # the (n, mu, p) cases of the benchmark's verify workload
    BATTERY = [(3, 2.0, 2.0), (3, 0.0, 2.0), (2, 2.0, 1.5), (4, 1.0, 1.6), (5, 2.0, 1.4)]

    @pytest.mark.parametrize("n, mu, p", BATTERY)
    def test_ratios_against_scipy(self, n, mu, p):
        from scipy.integrate import dblquad

        cfg = make_cfg(n=n, mu=mu, p=p, kbar=0.5)
        m, w = cfg.params.m, mu * (p - 1.0) / 2.0
        state = initial_state(cfg)
        for k in range(1, 4):
            samples = self._samples(cfg, 4, seed=k)
            a, b = state.a, state.b
            nxt = iterate(state, cfg)
            expected = []
            for t, r in samples:
                integral = dblquad(
                    lambda s, tau: s ** (m * (1.0 - p)) * (s + tau) ** (-p * b) * tau ** (p * a) * (1.0 + tau) ** (-w),
                    0.0, t, lambda tau: r - t + tau, lambda tau: r + t - tau, epsabs=0.0, epsrel=1e-10,
                )[0]  # fmt: skip
                const_ratio = 2.0 ** (p + 1.0) * (p * a + 2.0) ** 2
                expected.append(integral / 8.0 * const_ratio * (r + t) ** nxt.b / t**nxt.a)
            report = verify_iteration_step(state, samples, cfg)
            np.testing.assert_allclose(report.ratios, expected, rtol=1e-8)
            state = nxt

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda s, P: dataclasses.replace(s, a=s.a + 0.5),
            lambda s, P: dataclasses.replace(s, b=s.b - P.m * (P.p - 1.0)),
            lambda s, P: dataclasses.replace(s, logC=s.logC + 1.0),
        ],
        ids=["a_plus_half", "b_without_m_term", "logC_plus_one"],
    )
    def test_broken_iterate_fails(self, monkeypatch, mutation):
        # the oracle checks the rung that iterate returns, not its own copy:
        # over the battery of test_ratios_against_scipy, a broken update
        # drives the worst ratio below 1
        def battery_worst():
            worst = math.inf
            for n, mu, p in self.BATTERY:
                cfg = make_cfg(n=n, mu=mu, p=p, kbar=0.5)
                state = initial_state(cfg)
                for k in range(1, 4):
                    worst = min(worst, verify_iteration_step(state, self._samples(cfg, 4, seed=k), cfg).worst_ratio)
                    state = iterate(state, cfg)
            return worst

        assert battery_worst() > 1.0
        monkeypatch.setattr(bound_engine, "iterate", lambda state, c: mutation(iterate(state, c), c.params))
        assert battery_worst() < 1.0

    def test_rejects_samples_outside_sigma(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            verify_iteration_step(initial_state(cfg), [(2.0, 2.5)], cfg)
        with pytest.raises(ValueError):
            verify_iteration_step(initial_state(cfg), [(0.5, 5.0)], cfg)


class TestBlowUpDivergence:
    def test_envelope_diverges_where_J_positive(self):
        # big eps makes J > 0 at a moderate ray point; the log-envelope
        # then grows without bound along the iteration
        cfg = make_cfg(p=2.0, mu=2.0, kbar=0.5, eps=1e6)
        t = 10.0
        r = t + max(2.0 * t / cfg.delta_m, cfg.delta)
        assert J(t, r, cfg) > 0
        m = cfg.params.m
        state = initial_state(cfg)
        envelope = []
        for _ in range(60):
            envelope.append(
                state.logC + state.a * math.log(t) - m * math.log(r) - state.b * math.log(r + t)
            )
            state = iterate(state, cfg)
        assert envelope[-1] > envelope[0] + 1e3
        assert all(b > a for a, b in zip(envelope[40:], envelope[41:]))

    def test_envelope_collapses_where_J_negative(self):
        cfg = make_cfg(p=2.0, mu=2.0, kbar=0.5, eps=1e-6)
        t, r = 2.0, 2.0 + max(2.0 * 2.0 / cfg.delta_m, cfg.delta)
        assert J(t, r, cfg) < 0
        m = cfg.params.m
        state = initial_state(cfg)
        for _ in range(60):
            state = iterate(state, cfg)
        envelope = state.logC + state.a * math.log(t) - m * math.log(r) - state.b * math.log(r + t)
        assert envelope < -1e3


class TestBoundConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundConfig(params=ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.0), delta=0.0)
        with pytest.raises(ValueError):
            BoundConfig(params=ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.0), delta_m=-1.0)


# each call reaches one check that no other test fires, and without that
# check it raises something else or nothing
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: iterate(IterationState(k=0, a=2.0, b=1.5, logC=0.0), make_cfg()), "iteration index must be >= 1, got 0"),
        (lambda: closed_form(0, make_cfg()), "closed_form requires k >= 1, got 0"),
        (lambda: J(2.0, 0.0, make_cfg()), "J requires r > 0, got 0.0"),
        (lambda: J(2.0, -1.0, make_cfg()), "J requires r > 0, got -1.0"),
    ],
)
def test_each_check_names_its_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
