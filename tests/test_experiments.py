import contextlib
import dataclasses
import errno
import math
import multiprocessing
import os
import re
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blowuplab import experiments, solver
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
from blowuplab.exponents import HypothesisError, ModelParams, fujita
from blowuplab.solver import ConfigurationError, Form, GridSpec, run

FAST_GRID = GridSpec(dr=0.1, r_max=20.0, t_max=8.0, cfl=0.7)
FAST_PARAMS = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, M=1.0, eps=5.0)
FAST_EPS = (5.0, 7.5, 11.25, 16.875)
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fast_spec(levels=1):
    return SweepSpec(
        params_base=FAST_PARAMS, eps_values=FAST_EPS, grid=FAST_GRID, refinement_levels=levels
    )


def bounds_for(spec, eps_values=None):
    """The lifespan bound at spec's parameters keyed by each eps of
    `eps_values`, by default spec's (delta_m = 1)."""
    eps_values = spec.eps_values if eps_values is None else eps_values
    return {e: lifespan_upper_bound(BoundConfig(params=dataclasses.replace(spec.params_base, eps=e))) for e in eps_values}


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


def full_grid_sweep(monkeypatch, spec):
    """`sweep(spec)` with every level on its full grid: an unbounded
    T_MARGIN cuts neither t_max nor r_max."""
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "T_MARGIN", math.inf)
        return sweep(spec, jobs=1)


def note_run_grids(monkeypatch, pilot=None):
    """Patch experiments.run to list the (grid, result) of each call; a
    pilot's result (dr twice the sweep grid's) passes through `pilot` first."""
    real_run, calls = experiments.run, []

    def noting_run(form, params, grid, *args, **kwargs):
        result = real_run(form, params, grid, *args, **kwargs)
        if pilot is not None and grid.dr == 2 * FAST_GRID.dr:
            result = pilot(result)
        calls.append((grid, result))
        return result

    monkeypatch.setattr(experiments, "run", noting_run)
    return calls


class TestChain:
    """Each eps runs as a pilot and then every level cut to what the origin
    needs; a cut run that cannot vouch for its result reruns on the full grid."""

    @given(
        n=st.integers(2, 5),
        form=st.sampled_from([Form.U, Form.V]),
        mu=st.floats(0.0, 3.0),
        kbar=st.floats(-0.95, 1.5),
        p_frac=st.floats(0.05, 0.95),
        nu_gap=st.floats(0.0, 1.0),
        eps=st.floats(1.0, 20.0),
    )
    @settings(max_examples=24, deadline=None)
    def test_chain_equals_the_full_grid_at_every_level(self, n, form, mu, kbar, p_frac, nu_gap, eps):
        # blow-up hypotheses: kbar + mu/2 > 0, nu <= (mu/2)(mu/2 - 1), p < p_F(kbar + mu/2)
        assume(kbar + mu / 2.0 > 0.1)
        p = 1.0 + p_frac * (min(fujita(kbar + mu / 2.0), 4.0) - 1.0)
        params = ModelParams(n=n, mu=mu, nu=0.25 * mu * (mu - 2.0) - nu_gap, p=p, kbar=kbar, eps=eps)
        grid = GridSpec(dr=0.2, r_max=16.0, t_max=8.0, cfl=0.6)  # 0.6: stable up to n = 5
        chained = experiments._sweep_chain((form, params, grid, 2))
        full = [run(form, params, grid.refined(2**level), collect_history=False).T_num for level in range(2)]
        assert chained == full  # bitwise, None for a run that survived

    def test_a_pilot_that_underestimates_T_falls_back(self, monkeypatch):
        spec = fast_spec(levels=2)
        expected = full_grid_sweep(monkeypatch, spec)
        calls = note_run_grids(monkeypatch, pilot=lambda res: dataclasses.replace(res, T_num=0.5 * res.T_num))
        assert sweep(spec, jobs=1) == expected
        # each level-0 cut stops at about 0.5 T, survives, and reruns on the full grid
        level0 = [(grid, res) for grid, res in calls if grid.dr == FAST_GRID.dr]
        assert [res.T_num is None for _, res in level0] == [True, False] * len(FAST_EPS)
        assert [grid == FAST_GRID for grid, _ in level0] == [False, True] * len(FAST_EPS)

    @pytest.mark.parametrize("pilot_says_origin", [False, True])
    def test_data_peaking_off_the_origin_fall_back(self, monkeypatch, pilot_says_origin):
        # a bump at r = 6 blows up there; a pilot that reports r_star = 0
        # makes every level try a cut, which then peaks at the edge of the
        # region it kept or survives
        monkeypatch.setattr(solver, "initial_data", lambda r, params: params.M * np.exp(-((np.asarray(r, dtype=float) - 6.0) ** 2)))
        spec = fast_spec(levels=2)
        expected = full_grid_sweep(monkeypatch, spec)
        calls = note_run_grids(monkeypatch, pilot=(lambda res: dataclasses.replace(res, r_star=0.0)) if pilot_says_origin else None)
        assert sweep(spec, jobs=1) == expected
        assert all(res.r_star > experiments.R_OBS / 2 for grid, res in calls if grid.dr < 2 * FAST_GRID.dr and res.T_num is not None)
        cuts = [(grid, res) for grid, res in calls if grid.r_max < FAST_GRID.r_max]
        if pilot_says_origin:
            assert any(res.T_num is not None for _, res in cuts)  # blew up, but near the edge
            assert any(res.T_num is None for _, res in cuts)
        else:
            assert cuts == []  # no solve blew up at the origin: nothing to cut for


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
def meet_a_worker(monkeypatch, worker_dies=False):
    """Patch experiments.run so that this process's first solve waits until
    a forked worker starts one, and dies there if `worker_dies`: a worker
    then takes a chain however late it is scheduled."""
    caller, real_run, waited = os.getpid(), experiments.run, []
    read_end, write_end = os.pipe()

    def meeting_run(*args, **kwargs):
        if os.getpid() != caller:
            os.write(write_end, b".")
            if worker_dies:
                os._exit(1)
        elif not waited:
            waited.append(os.read(read_end, 1))
        return real_run(*args, **kwargs)

    monkeypatch.setattr(experiments, "run", meeting_run)
    try:
        yield
    finally:
        os.close(read_end)
        os.close(write_end)


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
        with meet_a_worker(monkeypatch), deadline(60.0):
            sweep(fast_spec(), jobs=2)
        runs = {int(path.name): len(path.read_text(encoding="utf-8").splitlines()) for path in tmp_path.iterdir()}
        assert len(runs) == 2
        assert os.getpid() in runs
        # a lane takes whole chains: a pilot and one level per eps, no fallback
        assert sum(runs.values()) == 2 * len(FAST_EPS)
        assert all(count % 2 == 0 for count in runs.values())

    def test_every_task_runs_once_under_contention(self, monkeypatch, tmp_path):
        # more lanes than cores, six processes that contend for the lock
        # of the one count they all take chains from
        spec = SweepSpec(params_base=FAST_PARAMS, eps_values=tuple(5.0 * 1.1**k for k in range(12)), grid=FAST_GRID, refinement_levels=2)
        expected = sweep(spec, jobs=1)
        note_run_pids(monkeypatch, tmp_path)
        with deadline(60.0):
            result = sweep(spec, jobs=6)
        assert result == expected
        # 12 chains of a pilot and two levels, none of which falls back
        assert sum(len(path.read_text(encoding="utf-8").splitlines()) for path in tmp_path.iterdir()) == 36

    @pytest.mark.parametrize(
        "jobs, forks", [(-1, 0), (0, 0), (1, 0), (2, 1), (3, 2), (16, len(FAST_EPS) - 1), (None, min(USABLE_CPUS, len(FAST_EPS)) - 1)]
    )
    def test_forks_one_worker_per_lane_but_one_before_any_thread(self, monkeypatch, jobs, forks):
        # threads alive at each fork, and during each run in this process,
        # whatever the number of workers; a lane per eps chain at most,
        # whatever the number of levels
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
            sweep(fast_spec(levels=2), jobs=jobs)
        assert at_fork == [threads] * forks
        assert all(count == threads for count in at_run)
        if not forks:
            assert len(at_run) == 3 * len(FAST_EPS)
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

    def test_a_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        with meet_a_worker(monkeypatch, worker_dies=True), deadline(1.0), pytest.raises(RuntimeError, match="a sweep worker process died"):
            sweep(fast_spec(), jobs=2)
        assert multiprocessing.active_children() == []

    def test_a_fork_that_fails_raises_and_leaves_no_worker(self, monkeypatch):
        forks, real_fork = [], os.fork

        def failing_fork():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        with deadline(1.0), pytest.raises(BlockingIOError):
            sweep(fast_spec(), jobs=3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing, delay", [("caller", 0.5), ("worker", 0.25)])
    def test_a_failing_lane_ends_the_sweep(self, monkeypatch, failing, delay):
        # one lane fails on its second solve, and each solve of the other
        # takes `delay` s: the sweep must not wait for the chains still queued
        caller, real_run, solves = os.getpid(), experiments.run, []

        def failing_run(*args, **kwargs):
            solves.append(None)  # a worker counts in its own copy of the list
            if (os.getpid() == caller) == (failing == "caller"):
                if len(solves) == 2:
                    raise MemoryError("no room for the level")
            else:
                time.sleep(delay)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(experiments, "run", failing_run)
        with deadline(1.0), pytest.raises(MemoryError, match="no room for the level"):
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
        report = check_upper_bound(spec, sweep(spec, jobs=1), bounds)
        assert report.conditional is True
        assert report.delta_m == 1.0
        assert report.all_ok
        for row in report.rows:
            assert row.T_num <= row.T_upper
            assert row.T_upper == bounds[row.eps].T_upper  # each row is its eps's bound, bitwise

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
        report = check_upper_bound(spec, fake, bounds_for(spec))
        assert [row.vacuous for row in report.rows] == [False, False, False, True]
        assert report.rows[-1].T_upper == 1.0
        assert "vacuous" in report.note

    def test_delta_m_comes_from_the_bounds(self):
        spec = fast_spec()
        fake = SweepResult(
            points=tuple(SweepPoint(eps, 1.0, None) for eps in FAST_EPS),
            slope=-1.0, intercept=0.0, r_squared=1.0, alpha_theory=1.0, survived_eps=(),
        )

        def bounds_at(delta_m, eps_values):
            return {e: lifespan_upper_bound(BoundConfig(dataclasses.replace(FAST_PARAMS, eps=e), delta_m=delta_m)) for e in eps_values}

        at_2 = bounds_at(2.0, FAST_EPS)
        report = check_upper_bound(spec, fake, at_2)
        assert (report.delta_m, report.conditional) == (2.0, True)
        assert [row.T_upper for row in report.rows] == [at_2[eps].T_upper for eps in FAST_EPS]
        mixed = {**bounds_at(2.0, FAST_EPS[:2]), **bounds_at(1.0, FAST_EPS[2:])}
        with pytest.raises(ValueError, match=re.escape("the bounds must share one delta_m, got [1.0, 2.0]")):
            check_upper_bound(spec, fake, mixed)

    def test_bounds_are_matched_to_points_by_eps(self):
        spec = fast_spec()
        fake = SweepResult(
            points=tuple(SweepPoint(eps, 1.0, None) for eps in FAST_EPS),
            slope=-1.0, intercept=0.0, r_squared=1.0, alpha_theory=1.0, survived_eps=(),
        )
        report = check_upper_bound(spec, fake, bounds_for(spec))
        assert check_upper_bound(spec, fake, bounds_for(spec, FAST_EPS[::-1])) == report
        assert [row.T_upper for row in report.rows] == sorted((row.T_upper for row in report.rows), reverse=True)
        for eps_values, odd in [(FAST_EPS[:-1], FAST_EPS[-1]), ((*FAST_EPS, 20.0), 20.0)]:
            with pytest.raises(ValueError, match=re.escape(f"eps [{odd}] is in only one of them")):
                check_upper_bound(spec, fake, bounds_for(spec, eps_values))


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


# each call reaches one check that no other test fires, and without that
# check it raises something else or nothing
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SweepSpec(params_base=FAST_PARAMS, eps_values=FAST_EPS, grid=FAST_GRID, refinement_levels=0), "refinement_levels must be >= 1"),
        (lambda: convergence_study(FAST_PARAMS, FAST_GRID, levels=3, compare_time=2.0 * FAST_GRID.t_max), "compare_time exceeds t_max"),
    ],
)
def test_each_check_names_its_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
