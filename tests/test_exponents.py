import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowuplab.exponents import (
    HypothesisError,
    ModelParams,
    RegionVerdict,
    UncoveredCaseError,
    Verdict,
    admissible_range,
    atlas,
    classify,
    fujita,
    kbar_zero,
    lifespan_exponent,
    mu_max,
    p_bar,
    strauss,
)

# 20-digit reference constants
SQRT17 = 4.1231056256176605498
SQRT5 = 2.2360679774997896964
SQRT2 = 1.4142135623730950488
SQRT7 = 2.6457513110645905905


def quadratic_residual(d, p):
    return (d - 1.0) * p * p - (d + 1.0) * p - 2.0


class TestFujita:
    def test_h2(self):
        assert fujita(2.0) == 2.0

    def test_half(self):
        assert fujita(0.5) == 5.0

    def test_meets_strauss_at_kbar0(self):
        # the curve value at the n=3, mu=2 intersection abscissa
        h = (1.0 + SQRT17) / 2.0
        assert fujita(h) == pytest.approx((3.0 + SQRT17) / 4.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fujita(0.0)
        with pytest.raises(ValueError):
            fujita(-1.0)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-6, max_value=10.0))
    def test_strictly_decreasing(self, h, dh):
        assert fujita(h + dh) < fujita(h)

    def test_limit_one(self):
        assert fujita(1e12) == pytest.approx(1.0, abs=1e-11)


class TestStrauss:
    def test_d5_exact(self):
        assert strauss(5.0) == pytest.approx((3.0 + SQRT17) / 4.0, abs=1e-12)

    def test_d3(self):
        assert strauss(3.0) == pytest.approx(1.0 + SQRT2, abs=1e-12)

    def test_d2_by_residual(self):
        assert abs(quadratic_residual(2.0, strauss(2.0))) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            strauss(1.0)

    def test_residual_random_batch(self):
        rng = np.random.default_rng(2024)
        ds = rng.uniform(1.0, 100.0, size=1000)
        ds = ds[ds > 1.01]
        for d in ds:
            assert abs(quadratic_residual(d, strauss(d))) < 1e-12

    def test_strictly_decreasing_on_sample(self):
        ds = np.linspace(1.05, 100.0, 4000)
        vals = np.array([strauss(d) for d in ds])
        assert np.all(np.diff(vals) < 0)


class TestKbarZero:
    def test_n3_mu2(self):
        assert kbar_zero(3, 2.0) == pytest.approx((-1.0 + SQRT17) / 2.0, abs=1e-12)

    def test_n5_mu2(self):
        # (n-5+sqrt(n^2+14n+17))/4 at n=5 reduces to sqrt(7)
        assert kbar_zero(5, 2.0) == pytest.approx(math.sqrt(112.0) / 4.0, abs=1e-12)
        assert kbar_zero(5, 2.0) == pytest.approx(SQRT7, abs=1e-12)

    @given(st.integers(min_value=2, max_value=12), st.floats(min_value=0.0, max_value=6.0))
    def test_defining_identity(self, n, mu):
        k0 = kbar_zero(n, mu)
        assert abs(fujita(k0 + mu / 2.0) - strauss(n + mu)) < 1e-12


class TestMuMax:
    def test_n3(self):
        assert mu_max(3) == pytest.approx(1.0 + SQRT5, abs=1e-12)

    def test_n9(self):
        assert mu_max(9) == pytest.approx(4.0 * (1.0 + SQRT2), abs=1e-12)

    @given(st.integers(min_value=2, max_value=200))
    def test_above_two(self, n):
        # equality holds at n = 2 exactly: (1/2)(1 + sqrt(9)) = 2
        assert mu_max(n) >= 2.0
        if n >= 3:
            assert mu_max(n) > 2.0


class TestPBar:
    def test_n4_mu2(self):
        assert p_bar(4, 2.0) == pytest.approx(9.0 / 5.0, abs=1e-14)

    def test_n5_mu2(self):
        assert p_bar(5, 2.0) == pytest.approx(5.0 / 3.0, abs=1e-14)

    @given(st.integers(min_value=2, max_value=12), st.floats(min_value=0.1, max_value=20.0))
    def test_large_mu_branch(self, n, mu):
        # mu >= n-1 makes the pure-damping branch the minimum
        if mu >= n - 1:
            assert p_bar(n, mu) == fujita(mu)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            p_bar(4, 0.0)


class TestAdmissibleRange:
    def test_n3_p2_mu2(self):
        k1, k2 = admissible_range(3, 2.0, 2.0)
        assert k1 == pytest.approx(1.0)
        assert k2 == pytest.approx(2.0)

    def test_n4_p2_mu2(self):
        _, k2 = admissible_range(4, 2.0, 2.0)
        assert k2 == pytest.approx(3.0)

    def test_n5_p2_mu2(self):
        k1, _ = admissible_range(5, 2.0, 2.0)
        assert k1 == pytest.approx(2.0)

    def test_n5_mu2_extra_decay_cap(self):
        # the n=5 lists carry the sharper cap kbar <= 3
        _, k2 = admissible_range(5, 2.0, 2.0)
        assert k2 == pytest.approx(3.0)

    def test_uncovered_case(self):
        with pytest.raises(UncoveredCaseError):
            admissible_range(2, 2.0, 2.0)
        with pytest.raises(UncoveredCaseError):
            admissible_range(4, 2.0, 50.0)

    def test_general_mu_even(self):
        k1, k2 = admissible_range(4, 2.0, 3.0)
        assert k1 == pytest.approx(max(1.5, 2.0 - 1.5))
        assert k2 == pytest.approx(min(3.0, 3.0 * 2.0 - 2.5))

    def test_n2_has_no_general_damping_case(self):
        # M(2) = (1/2)(1 + sqrt(9)) = 2 exactly, so mu = 2 is the only
        # damping the table covers in n = 2 and every other mu is out of range
        assert mu_max(2) == 2.0
        with pytest.raises(UncoveredCaseError, match="outside the encoded damping range"):
            admissible_range(2, 2.0, 2.0 + 1e-9)

    def test_general_mu_n3(self):
        # k1 = max(1, 2/(p-1) - mu/2, 1/(p-1)) = max(1, 41/26, 20/13) = 41/26,
        # k2 = min(n-1, (n+mu-1) p/2 - (mu+2)/2) = min(2, 13/8) = 13/8
        k1, k2 = admissible_range(3, 1.65, 3.0)
        assert k1 == pytest.approx(41.0 / 26.0, rel=1e-14)
        assert k2 == pytest.approx(13.0 / 8.0, rel=1e-14)

    def test_general_mu_odd_n5_both_sides_of_n_minus_1(self):
        # mu = 4 <= n - 1: k1 = max(2, 2/(p-1) - 2) = 2/0.45 - 2 = 22/9;
        # mu = 5 > n - 1: the guard 1/(p-1) = 20/9 joins and decides
        # max(2, 2/0.45 - 5/2, 20/9) = 20/9, which the mu <= n - 1 rule misses
        k1, k2 = admissible_range(5, 1.45, 4.0)
        assert k1 == pytest.approx(22.0 / 9.0, rel=1e-14)
        assert k2 == pytest.approx(2.8, rel=1e-14)  # min(4, 4 p - 3)
        k1, k2 = admissible_range(5, 1.45, 5.0)
        assert k1 == pytest.approx(20.0 / 9.0, rel=1e-14)
        assert k2 == pytest.approx(3.025, rel=1e-14)  # min(4, 9p/2 - 7/2)

    def test_general_mu_even_above_n_minus_1_has_no_guard(self):
        # n = 4, mu = 4 > n - 1: k1 = max(3/2, 2/0.6 - 2) = 3/2; the odd-n
        # guard 1/(p-1) = 5/3 must not join.  k2 = min(3, 7p/2 - 3) = 13/5
        k1, k2 = admissible_range(4, 1.6, 4.0)
        assert k1 == 1.5
        assert k2 == pytest.approx(2.6, rel=1e-14)

    def test_general_mu_n3_guard_decides(self):
        # k1 = max(1, 2/0.8 - 3/2, 1/0.8) = max(1, 1, 5/4) = 5/4,
        # k2 = min(2, 5p/2 - 5/2) = min(2, 2) = 2
        k1, k2 = admissible_range(3, 1.8, 3.0)
        assert k1 == pytest.approx(1.25, rel=1e-14)
        assert k2 == pytest.approx(2.0, rel=1e-14)


def _alt_exponent(p, mu, kbar):
    # kbar + mu/2 grouped first: subtracting mu/2 and then kbar loses digits
    # where the two nearly cancel (the @example below is off by 1.3e-12)
    return 1.0 / (2.0 / (p - 1.0) - (kbar + mu / 2.0))


class TestLifespanExponent:
    def test_hand_value(self):
        params = ModelParams(n=3, mu=2.0, nu=0.0, p=1.5, kbar=1.0)
        assert lifespan_exponent(params) == pytest.approx(0.5, abs=1e-14)

    def test_mu0_reduction(self):
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5)
        expected = (params.p - 1.0) / (2.0 - params.kbar * (params.p - 1.0))
        assert lifespan_exponent(params) == pytest.approx(expected, rel=1e-14)

    def test_divergence_at_critical_power(self):
        kbar, mu = 1.0, 2.0
        p_crit = fujita(kbar + mu / 2.0)
        alpha = lifespan_exponent(ModelParams(n=3, mu=mu, nu=0.0, p=p_crit - 1e-10, kbar=kbar))
        assert alpha > 1e8

    def test_hypothesis_errors_are_named(self):
        with pytest.raises(HypothesisError, match="kbar"):
            lifespan_exponent(ModelParams(n=3, mu=0.5, nu=0.0, p=1.5, kbar=-0.5))
        with pytest.raises(HypothesisError, match="nu"):
            lifespan_exponent(ModelParams(n=3, mu=2.0, nu=1.0, p=1.5, kbar=1.0))
        with pytest.raises(HypothesisError, match="p_F"):
            lifespan_exponent(ModelParams(n=3, mu=2.0, nu=0.0, p=2.5, kbar=1.0))

    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=-0.9, max_value=4.0),
        st.floats(min_value=1e-4, max_value=0.999),
    )
    @example(mu=0.998046875, kbar=-0.4985114890704563, frac=0.96875)
    @settings(max_examples=300)
    def test_two_expressions_agree(self, mu, kbar, frac):
        h = kbar + mu / 2.0
        if h <= 1e-6:
            return
        p = 1.0 + frac * (fujita(h) - 1.0)
        nu = 0.25 * mu * (mu - 2.0)  # largest mass the hypotheses allow
        params = ModelParams(n=4, mu=mu, nu=nu, p=p, kbar=kbar)
        a = lifespan_exponent(params)
        b = _alt_exponent(p, mu, kbar)
        assert abs(a - b) <= 1e-12 * abs(b)
        assert a > 0


class TestLifespanExponentDomain:
    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=-0.9, max_value=4.0),
        st.floats(min_value=1.01, max_value=8.0),
    )
    @settings(max_examples=300)
    def test_positive_exactly_below_heat_threshold(self, mu, kbar, p):
        # alpha > 0 iff p < p_F(kbar + mu/2); outside, the hypothesis is
        # rejected rather than a nonpositive value returned
        h = kbar + mu / 2.0
        if h <= 1e-9:
            return
        params = ModelParams(n=3, mu=mu, nu=0.25 * mu * (mu - 2.0), p=p, kbar=kbar)
        if p < fujita(h):
            assert lifespan_exponent(params) > 0
        else:
            with pytest.raises(HypothesisError):
                lifespan_exponent(params)


class TestClassify:
    def test_blow_up_example(self):
        v = classify(ModelParams(n=3, mu=2.0, nu=0.0, p=1.6, kbar=1.0))
        assert v.kind is Verdict.BLOW_UP
        assert v.lifespan_exponent == pytest.approx(0.75, abs=1e-12)
        assert "p < p_F(kbar + mu/2)" in v.active_constraints

    def test_global_existence_example(self):
        v = classify(ModelParams(n=3, mu=2.0, nu=0.0, p=2.2, kbar=3.0))
        assert v.kind is Verdict.GLOBAL_EXISTENCE
        assert v.lifespan_exponent is None
        assert "kbar > k2: reduced to k2" in v.active_constraints

    def test_unknown_when_mass_above_critical(self):
        v = classify(ModelParams(n=3, mu=2.0, nu=0.5, p=2.2, kbar=3.0))
        assert v.kind is Verdict.UNKNOWN

    def test_boundary_power_is_unknown(self):
        # exactly on p = p_F(kbar + mu/2): nothing is proved there
        v = classify(ModelParams(n=3, mu=2.0, nu=0.0, p=2.0, kbar=1.0))
        assert v.kind is Verdict.UNKNOWN

    def test_white_zone_below_kbar0(self):
        # slightly below kbar0, between the wave and heat thresholds
        kbar = kbar_zero(3, 2.0) - 0.15
        p_lo = strauss(5.0)
        p_hi = fujita(kbar + 1.0)
        p = 0.5 * (p_lo + p_hi)
        assert p_lo < p < p_hi
        v = classify(ModelParams(n=3, mu=2.0, nu=0.0, p=p, kbar=kbar))
        assert v.kind is Verdict.BLOW_UP

    def test_uncovered_literature_case_is_unknown(self):
        # n=2, mu=2 has no encoded global-existence result
        v = classify(ModelParams(n=2, mu=2.0, nu=0.0, p=3.5, kbar=3.0))
        assert v.kind is Verdict.UNKNOWN

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100)
    def test_invariant_under_data_rescaling(self, M, eps):
        for p, kbar in [(1.6, 1.0), (2.2, 3.0), (2.0, 1.0)]:
            a = classify(ModelParams(n=3, mu=2.0, nu=0.0, p=p, kbar=kbar, M=M, eps=eps))
            b = classify(ModelParams(n=3, mu=2.0, nu=0.0, p=p, kbar=kbar))
            assert a.kind is b.kind

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=-1.0, max_value=3.0),
        st.floats(min_value=-0.9, max_value=5.0),
        st.floats(min_value=1.01, max_value=4.0),
    )
    @settings(max_examples=300)
    def test_blow_up_verdict_implies_hypotheses(self, n, mu, nu, kbar, p):
        v = classify(ModelParams(n=n, mu=mu, nu=nu, p=p, kbar=kbar))
        if v.kind is Verdict.BLOW_UP:
            h = kbar + mu / 2.0
            assert h > 0
            assert 0.25 * mu * (mu - 2.0) >= nu
            assert p < fujita(h)
            assert v.lifespan_exponent > 0

    # one global-existence point per p-capped literature case; each passes
    # the mass, damping, decay, p_S and p_F tests and fails T1's p < p_F:
    #   n=7 mu=2: k1 = max(1, 3) = 3 <= 5 <= k2 = min(6, 6), p_S(9) = 1.425,
    #             p_F(6) = 4/3, cap (n+1)/(n-3) = 2;
    #   n=3 mu=3 nu=3/4: k1 = 41/26 <= 1.6 <= k2 = 13/8, p_S(6) = 1.643,
    #             p_F(3.1) = 1.645, cap p_bar = min(p_F(3), p_F(5/2)) = 5/3;
    #   n=5 mu=4 nu=2: k1 = 22/9 <= 2.5 <= k2 = 2.8, p_S(9) = 1.425,
    #             p_F(4.5) = 1.444, cap p_bar = min(p_F(4), p_F(4)) = 3/2;
    #   n=5 mu=5 nu=15/4: k1 = 2/0.39 - 5/2 = 2.628 <= 2.7 <= k2 = 2.755,
    #             p_S(10) = 1.383, p_F(5.2) = 1.385, cap p_bar = p_F(5) = 7/5
    @pytest.mark.parametrize(
        "n, mu, nu, p, kbar, cap",
        [
            (7, 2.0, 0.0, 2.0, 5.0, "p <= (n+1)/(n-3) = 2"),
            (3, 3.0, 0.75, 1.65, 1.6, "p < p_bar(n, mu) = 1.66667"),
            (5, 4.0, 2.0, 1.45, 2.5, "p < p_bar(n, mu) = 1.5"),
            (5, 5.0, 3.75, 1.39, 2.7, "p < p_bar(n, mu) = 1.4"),
        ],
    )
    def test_global_existence_under_a_p_cap(self, n, mu, nu, p, kbar, cap):
        v = classify(ModelParams(n=n, mu=mu, nu=nu, p=p, kbar=kbar))
        assert v.kind is Verdict.GLOBAL_EXISTENCE
        assert v.active_constraints == (
            "nu = (mu/2)(mu/2 - 1) >= 0",
            "2 <= mu <= M(n)",
            "kbar >= k1(n, p, mu)",
            "p > p_S(n + mu)",
            "p > p_F(kbar + mu/2)",
            cap,
        )

    def test_failed_p_cap_is_named(self):
        # n=7 mu=2 at p = 2.5 > (n+1)/(n-3) = 2: every other test passes
        # (k1 = max(1/3, 3) = 3 <= 5 <= k2 = min(8, 6) = 6)
        v = classify(ModelParams(n=7, mu=2.0, nu=0.0, p=2.5, kbar=5.0))
        assert v.kind is Verdict.UNKNOWN
        assert v.active_constraints == (
            "no blow-up: p < p_F(kbar + mu/2)",
            "no global existence: p <= (n+1)/(n-3) = 2",
        )


class TestModelParams:
    def test_m_derived(self):
        assert ModelParams(n=5, mu=2.0, nu=0.0, p=2.0, kbar=1.0).m == 2
        assert ModelParams(n=2, mu=2.0, nu=0.0, p=2.0, kbar=1.0).m == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, mu=0.0, nu=0.0, p=2.0, kbar=0.0),
            dict(n=3, mu=0.0, nu=0.0, p=1.0, kbar=0.0),
            dict(n=3, mu=0.0, nu=0.0, p=2.0, kbar=-1.0),
            dict(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.0, M=0.0),
            dict(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.0, eps=0.0),
            dict(n=3.0, mu=0.0, nu=0.0, p=2.0, kbar=0.0),
        ],
    )
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestAtlas:
    def test_single_node_matches_classify(self):
        res = atlas(3, 2.0, 0.0, [1.0], [1.6])
        v = classify(ModelParams(n=3, mu=2.0, nu=0.0, p=1.6, kbar=1.0))
        assert res.verdicts[0, 0] == v.kind.value
        assert res.alphas[0, 0] == pytest.approx(v.lifespan_exponent)

    def test_boundary_point(self):
        res = atlas(3, 2.0, 0.0, (-0.5, 4.0, 10), (1.05, 3.5, 10))
        assert kbar_zero(res.n, res.mu) == pytest.approx((-1.0 + SQRT17) / 2.0, abs=1e-12)
        assert strauss(res.n + res.mu) == pytest.approx((3.0 + SQRT17) / 4.0, abs=1e-12)

    def test_nodes_hugging_curve_blow_up(self):
        ks = np.linspace(0.2, 3.0, 40)
        for k in ks:
            p = fujita(k + 1.0) - 1e-9
            res = atlas(3, 2.0, 0.0, [float(k)], [float(p)])
            assert res.verdicts[0, 0] == Verdict.BLOW_UP.value

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            atlas(3, 2.0, 0.0, [], [2.0])
        with pytest.raises(ValueError):
            atlas(3, 2.0, 0.0, (0.0, 1.0, 0), [2.0])

    def test_out_of_domain_grid_rejected(self):
        with pytest.raises(ValueError):
            atlas(3, 2.0, 0.0, [-1.5], [2.0])
        with pytest.raises(ValueError):
            atlas(3, 2.0, 0.0, [1.0], [0.9])

    def test_csv_round_trip_shape(self):
        res = atlas(3, 2.0, 0.0, (0.0, 2.0, 5), (1.2, 2.5, 7))
        buf = io.StringIO()
        res.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "kbar,p,verdict,alpha"
        assert len(lines) == 1 + 5 * 7


# each call reaches one check that no other test fires, and without that
# check it raises something else or nothing
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModelParams(n=3, mu=math.nan, nu=0.0, p=2.0, kbar=0.5), "mu must be finite, got nan"),
        (lambda: RegionVerdict(Verdict.BLOW_UP, None, ()), "lifespan_exponent present iff verdict is blow-up"),
        (lambda: RegionVerdict(Verdict.UNKNOWN, 1.0, ()), "lifespan_exponent present iff verdict is blow-up"),
        (lambda: RegionVerdict(Verdict.BLOW_UP, -1.0, ()), "lifespan_exponent must be positive"),
        (lambda: kbar_zero(1, 2.0), "kbar_zero requires n >= 2, got 1"),
        (lambda: mu_max(1), "mu_max requires n >= 2, got 1"),
        (lambda: admissible_range(1, 2.0, 2.0), "admissible_range requires n >= 2, got 1"),
        (lambda: admissible_range(3, 1.0, 2.0), "admissible_range requires p > 1, got 1.0"),
        (lambda: atlas(3, 2.0, 0.0, [0.0, math.inf], [2.0]), "k_grid: grid values must be finite"),
    ],
)
def test_each_check_names_its_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
