import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab.bound_engine import BoundConfig, lifespan_upper_bound
from blowuplab.experiments import (
    SweepPoint,
    SweepResult,
    SweepSpec,
    check_upper_bound,
    convergence_study,
    fit_power_law,
    sweep,
)
from blowuplab.exponents import HypothesisError, ModelParams
from blowuplab.solver import Form, GridSpec

FAST_GRID = GridSpec(dr=0.1, r_max=20.0, t_max=8.0, cfl=0.7)
FAST_PARAMS = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, M=1.0, eps=5.0)
FAST_EPS = (5.0, 7.5, 11.25, 16.875)


def fast_spec(levels=1):
    return SweepSpec(
        params_base=FAST_PARAMS, eps_values=FAST_EPS, grid=FAST_GRID, refinement_levels=levels
    )


class TestFitPowerLaw:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_recovers_synthetic_exponent(self, a):
        eps = np.geomspace(1.0, 50.0, 12)
        T = 3.7 * eps ** (-a)
        slope, intercept, r2 = fit_power_law(eps, T)
        assert slope == pytest.approx(-a, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.7), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50)
    def test_recovery_property(self, a, c):
        eps = np.geomspace(0.5, 20.0, 8)
        slope, _, r2 = fit_power_law(eps, c * eps ** (-a))
        assert abs(slope + a) < 1e-10
        assert r2 > 1.0 - 1e-10

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0]), np.array([2.0]))


class TestSweepSpec:
    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            SweepSpec(params_base=FAST_PARAMS, eps_values=(1.0, 2.0, 3.0), grid=FAST_GRID)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            SweepSpec(params_base=FAST_PARAMS, eps_values=(1.0, 2.0, 2.0, 3.0), grid=FAST_GRID)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SweepSpec(params_base=FAST_PARAMS, eps_values=(-1.0, 2.0, 3.0, 4.0), grid=FAST_GRID)

    def test_hypotheses_enforced_at_sweep(self):
        bad = ModelParams(n=3, mu=2.0, nu=0.0, p=2.5, kbar=1.0)  # p above the heat threshold
        with pytest.raises(HypothesisError):
            sweep(SweepSpec(params_base=bad, eps_values=FAST_EPS, grid=FAST_GRID), jobs=1)


class TestSweep:
    def test_all_points_blow_up_and_fit(self):
        result = sweep(fast_spec(), jobs=1)
        assert result.survived_eps == ()
        assert all(pt.T_num is not None for pt in result.points)
        assert result.slope < 0
        assert result.alpha_theory == pytest.approx(1.0, rel=1e-12)
        assert 0 <= result.r_squared <= 1

    def test_deterministic(self):
        a = sweep(fast_spec(), jobs=1)
        b = sweep(fast_spec(), jobs=1)
        assert a == b

    def test_worker_count_is_immaterial(self):
        a = sweep(fast_spec(), jobs=1)
        b = sweep(fast_spec(), jobs=2)
        assert a == b

    def test_refinement_agreement_reported(self):
        result = sweep(fast_spec(levels=2), jobs=2)
        for pt in result.points:
            assert pt.refinement_agreement is not None
            assert pt.refinement_agreement < 0.05

    def test_T_num_nonincreasing_in_eps(self):
        # larger data blows up no later
        result = sweep(fast_spec(), jobs=1)
        Ts = [pt.T_num for pt in result.points]
        assert all(b <= a for a, b in zip(Ts, Ts[1:]))

    def test_survival_flagged(self):
        short = GridSpec(dr=0.1, r_max=20.0, t_max=1.0, cfl=0.7)
        spec = SweepSpec(
            params_base=dataclasses.replace(FAST_PARAMS, eps=1.0),
            eps_values=(0.001, 0.002, 0.004, 0.008),
            grid=short,
        )
        result = sweep(spec, jobs=1)
        assert len(result.survived_eps) == 4
        assert math.isnan(result.slope)
        assert "increase t_max or eps" in result.note


class TestCheckUpperBound:
    def test_all_below_bound_mu0(self):
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5, M=1.0, eps=2.0)
        spec = SweepSpec(
            params_base=params,
            eps_values=(2.0, 4.0, 6.0, 10.0),
            grid=GridSpec(dr=0.1, r_max=20.0, t_max=8.0, cfl=0.7),
        )
        report = check_upper_bound(spec, sweep(spec, jobs=1), lifespan_upper_bound(BoundConfig(params=params)), 1.0)
        assert report.conditional is True
        assert report.delta_m == 1.0
        assert report.all_ok
        for row in report.rows:
            assert row.T_num <= row.T_upper
            # one bound serves every eps: each row is the per-eps bound, bitwise
            bound = lifespan_upper_bound(BoundConfig(params=dataclasses.replace(params, eps=row.eps)))
            assert row.T_upper == bound.T_upper

    def test_vacuous_bound_flagged(self):
        # fabricated sweep output: a bound below the first time step is
        # marked vacuous but still compared
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5, M=1.0, eps=2.0)
        big_eps = 1e14
        spec = SweepSpec(
            params_base=params,
            eps_values=(1.0, 2.0, 3.0, big_eps),
            grid=GridSpec(dr=0.1, r_max=20.0, t_max=8.0, cfl=0.7),
        )
        fake = SweepResult(
            points=(
                SweepPoint(1.0, 3.0, None),
                SweepPoint(2.0, 2.0, None),
                SweepPoint(3.0, 1.5, None),
                SweepPoint(big_eps, 0.01, None),
            ),
            slope=-0.6,
            intercept=1.0,
            r_squared=0.99,
            alpha_theory=2.0 / 3.0,
            survived_eps=(),
        )
        report = check_upper_bound(spec, fake, lifespan_upper_bound(BoundConfig(params=params)), 1.0)
        assert report.rows[-1].vacuous
        assert "vacuous" in report.note


class TestConvergenceStudy:
    def test_needs_three_levels(self):
        with pytest.raises(ValueError, match="3 levels"):
            convergence_study(FAST_PARAMS, FAST_GRID, levels=2)

    def test_free_wave_order(self):
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5, eps=0.05)
        grid = GridSpec(dr=0.08, r_max=14.0, t_max=6.0, cfl=0.7)
        rep = convergence_study(params, grid, levels=3, form=Form.FREE, compare_time=3.0)
        assert rep.passed
        assert all(1.5 <= o <= 2.5 for o in rep.profile_orders)

    def test_deterministic(self):
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5, eps=0.05)
        grid = GridSpec(dr=0.1, r_max=10.0, t_max=4.0, cfl=0.7)
        a = convergence_study(params, grid, levels=3, form=Form.FREE)
        b = convergence_study(params, grid, levels=3, form=Form.FREE)
        assert a == b

    @pytest.mark.parametrize("compare_time", [-5.0, 0.0])
    def test_nonpositive_compare_time_rejected(self, compare_time):
        # -5 used to snap to one coarse step and pass at t = dt
        with pytest.raises(ValueError, match=f"compare_time must be > 0, got {compare_time}"):
            convergence_study(FAST_PARAMS, FAST_GRID, levels=3, compare_time=compare_time)

    def test_blow_up_before_compare_time_guides(self):
        grid = GridSpec(dr=0.1, r_max=26.0, t_max=10.0, cfl=0.7)
        with pytest.raises(ValueError, match="smaller compare_time"):
            convergence_study(FAST_PARAMS, grid, levels=3, compare_time=9.0)

    def test_blow_up_case_reports_T(self):
        grid = GridSpec(dr=0.08, r_max=26.0, t_max=10.0, cfl=0.7)
        rep = convergence_study(FAST_PARAMS, grid, levels=3, compare_time=3.0)
        assert rep.passed
        assert all(T is not None for T in rep.T_nums)
        assert rep.T_agreement is not None and rep.T_agreement < 0.05
