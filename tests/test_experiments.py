import contextlib
import dataclasses
import math
import multiprocessing
import os
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import experiments
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
from blowuplab.solver import ConfigurationError, Form, GridSpec

FAST_GRID = GridSpec(dr=0.1, r_max=20.0, t_max=8.0, cfl=0.7)
FAST_PARAMS = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, M=1.0, eps=5.0)
FAST_EPS = (5.0, 7.5, 11.25, 16.875)
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fast_spec(levels=1):
    return SweepSpec(
        params_base=FAST_PARAMS, eps_values=FAST_EPS, grid=FAST_GRID, refinement_levels=levels
    )


def bounds_for(spec):
    """The lifespan bound at spec's parameters for each eps (delta_m = 1)."""
    return tuple(lifespan_upper_bound(BoundConfig(params=dataclasses.replace(spec.params_base, eps=e))) for e in spec.eps_values)


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

    @pytest.mark.parametrize("level", [1.0, 1e100, 1e-100])
    def test_constant_data_fit_exactly(self, level):
        # ss_tot = 0: the least-squares line is the constant, whatever the
        # rounding in the residuals
        slope, intercept, r2 = fit_power_law(np.array([1.0, 2.0, 3.0, 4.0]), np.array([level] * 4))
        assert r2 == 1.0
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(level), rel=1e-12)

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

    @pytest.mark.parametrize("jobs", [0, 1, 2, 16])
    def test_worker_count_is_immaterial(self, jobs):
        assert sweep(fast_spec(), jobs=jobs) == sweep(fast_spec(), jobs=1)

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


def note_run_pids(monkeypatch, log_dir):
    """Patch experiments.run to add a line to log_dir/<pid> per call; forked
    workers inherit the patch."""
    real_run = experiments.run

    def noting_run(*args, **kwargs):
        with open(log_dir / str(os.getpid()), "a", encoding="utf-8") as fh:
            fh.write("run\n")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(experiments, "run", noting_run)


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"sweep ran for more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TestLanes:
    def test_the_calling_process_is_one_of_two_lanes(self, monkeypatch, tmp_path):
        note_run_pids(monkeypatch, tmp_path)
        with deadline(60.0):
            sweep(fast_spec(), jobs=2)
        runs = {int(path.name): len(path.read_text(encoding="utf-8").splitlines()) for path in tmp_path.iterdir()}
        assert len(runs) == 2
        assert os.getpid() in runs
        assert sum(runs.values()) == len(FAST_EPS)

    def test_every_task_runs_once_under_contention(self, monkeypatch, tmp_path):
        # more lanes than cores, and a thread switch every microsecond, on
        # the one queue all lanes take from
        spec = SweepSpec(params_base=FAST_PARAMS, eps_values=tuple(5.0 * 1.1**k for k in range(12)), grid=FAST_GRID, refinement_levels=2)
        expected = sweep(spec, jobs=1)
        note_run_pids(monkeypatch, tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with deadline(60.0):
                result = sweep(spec, jobs=6)
        finally:
            sys.setswitchinterval(interval)
        assert result == expected
        assert sum(len(path.read_text(encoding="utf-8").splitlines()) for path in tmp_path.iterdir()) == 24

    @pytest.mark.parametrize(
        "jobs, forks", [(-1, 0), (0, 0), (1, 0), (2, 1), (3, 2), (16, len(FAST_EPS) - 1), (None, min(USABLE_CPUS, len(FAST_EPS)) - 1)]
    )
    def test_forks_one_worker_per_lane_but_one_before_any_thread(self, monkeypatch, jobs, forks):
        # threads alive at each fork, and during each run in this process
        threads = threading.active_count()
        at_fork, at_run = [], []
        real_fork, real_run = os.fork, experiments.run

        def noting_fork():
            at_fork.append(threading.active_count())
            return real_fork()

        def noting_run(*args, **kwargs):
            at_run.append(threading.active_count())
            return real_run(*args, **kwargs)

        monkeypatch.setattr(os, "fork", noting_fork)
        monkeypatch.setattr(experiments, "run", noting_run)
        with deadline(60.0):
            sweep(fast_spec(), jobs=jobs)
        assert at_fork == [threads] * forks
        if not forks:
            assert at_run == [threads] * len(FAST_EPS)
        assert multiprocessing.active_children() == []

    def test_the_default_is_a_lane_per_usable_cpu(self, monkeypatch):
        # under `taskset -c 0` on a 2-CPU host, os.cpu_count() still says 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        forked, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or real_fork())
        with deadline(60.0):
            sweep(fast_spec(), jobs=None)
        assert forked == []

    def test_a_failing_grid_raises_within_one_second(self):
        spec = SweepSpec(params_base=FAST_PARAMS, eps_values=FAST_EPS, grid=dataclasses.replace(FAST_GRID, r_max=5.0))
        with deadline(1.0), pytest.raises(ConfigurationError, match="r_max > t_max/cfl"):
            sweep(spec, jobs=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")
    def test_a_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        # the pool replaces a worker that died, from one of its threads, but
        # never answers the task the dead worker held
        caller, real_run = os.getpid(), experiments.run

        def dying_run(*args, **kwargs):
            if os.getpid() != caller:
                os._exit(1)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(experiments, "run", dying_run)
        with deadline(10.0), pytest.raises(RuntimeError, match="worker"):
            sweep(fast_spec(), jobs=2)
        assert multiprocessing.active_children() == []


class TestCheckUpperBound:
    def test_all_below_bound_mu0(self):
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5, M=1.0, eps=2.0)
        spec = SweepSpec(
            params_base=params,
            eps_values=(2.0, 4.0, 6.0, 10.0),
            grid=GridSpec(dr=0.1, r_max=20.0, t_max=8.0, cfl=0.7),
        )
        bounds = bounds_for(spec)
        report = check_upper_bound(spec, sweep(spec, jobs=1), bounds, 1.0)
        assert report.conditional is True
        assert report.delta_m == 1.0
        assert report.all_ok
        for row, bound in zip(report.rows, bounds):
            assert row.T_num <= row.T_upper
            assert row.T_upper == bound.T_upper  # each row is its eps's bound, bitwise

    def test_vacuous_bound_flagged(self):
        # fabricated sweep output: a bound below the first time step is
        # marked vacuous but still compared; T_upper >= 1, so the step is 1.4
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5, M=1.0, eps=2.0)
        big_eps = 1e14
        spec = SweepSpec(
            params_base=params,
            eps_values=(1.0, 2.0, 3.0, big_eps),
            grid=GridSpec(dr=2.0, r_max=40.0, t_max=8.0, cfl=0.7),
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
        report = check_upper_bound(spec, fake, bounds_for(spec), 1.0)
        assert [row.vacuous for row in report.rows] == [False, False, False, True]
        assert report.rows[-1].T_upper == 1.0
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
