import functools
import itertools
import math
import re
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowuplab._quadrature import integrate
from blowuplab.exponents import ModelParams
from blowuplab.solver import (
    ConfigurationError,
    Form,
    GridSpec,
    _Leapfrog,
    causal_node_count,
    compare_forms,
    discrete_energy,
    exact_free_wave_n3,
    initial_data,
    max_stable_cfl,
    run,
    transform_check,
    transform_times,
)

FREE_PARAMS = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5, eps=1.0)
BLOWUP_PARAMS = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, M=1.0, eps=5.0)


def gaussian(r):
    return np.exp(-np.asarray(r, dtype=float) ** 2)


def gaussian_free_wave_n3(t, r):
    """The exact n = 3 free wave with u(0) = 0, u_t(0) = exp(-r^2):
    exp(-r^2-t^2) sinh(2rt)/(2r), and t exp(-t^2) at r = 0, written as
    t exp(-r^2-t^2) sinh(x)/x, x = 2rt, so no difference cancels at small r."""
    r = np.asarray(r, dtype=float)
    x = 2.0 * r * t
    return t * np.exp(-r * r - t * t) * np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0.0)


def cell_faces(grid, n):
    """Outer and inner face radii and exact volume (r_out^n - r_in^n)/n of
    every cell; the origin cell is the ball r <= dr/2."""
    outer = grid.radii() + grid.dr / 2.0
    inner = np.maximum(outer - grid.dr, 0.0)
    return outer, inner, (outer**n - inner**n) / n


def spectral_limit(n, n_nodes):
    """min(1, 2/sqrt(rho)), rho the spectral radius of the unsymmetrised
    operator -L dr^2 on n_nodes nodes, built from the face radii and cell
    volumes directly (u = 0 beyond the last node)."""
    outer, inner, volume = cell_faces(GridSpec(dr=1.0, r_max=n_nodes - 1.0, t_max=1.0), n)
    a, b = outer ** (n - 1) / volume, inner ** (n - 1) / volume
    op = np.diag(a + b) - np.diag(a[:-1], 1) - np.diag(b[1:], -1)
    return min(1.0, 2.0 / math.sqrt(np.max(np.abs(np.linalg.eigvals(op)))))


def full_grid_levels(form, params, grid, g=None):
    """Yield (j dt, u_prev, u_curr) at the levels j = 1, 2, ...: `run`'s level 1,
    then the solver's kernel over the whole grid with the outer node frozen."""
    kernel, r = _Leapfrog(form, params, grid), grid.radii()
    up, u = np.zeros_like(r), grid.dt * params.eps * (initial_data(r, params) if g is None else g(r))
    if form is Form.V:
        u = u * (1.0 - params.mu * grid.dt / 2.0)
    for j in itertools.count(1):
        yield j * grid.dt, up, u
        nxt = up.copy()
        kernel.bind(u, nxt, grid.n_nodes - 1, np.abs(u))(j * grid.dt)
        nxt[-1] = u[-1]
        up, u = u, nxt


def max_energy_drift(params, grid, g, n_levels):
    """Largest relative change of `discrete_energy` over the first n_levels
    full-grid levels of the free form."""
    levels = itertools.islice(full_grid_levels(Form.FREE, params, grid, g=g), n_levels)
    energies = np.array([discrete_energy(up, u, grid, params.n) for _, up, u in levels])
    return float(np.max(np.abs(energies - energies[0])) / energies[0])


class TestInitialData:
    def test_origin_value(self):
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=1.3, M=2.5)
        assert initial_data(0.0, params) == pytest.approx(2.5)

    def test_hand_value(self):
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=1.0, M=1.0)
        assert initial_data(1.0, params) == pytest.approx(0.25)

    def test_decreasing(self):
        params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5)
        r = np.linspace(0.0, 20.0, 50)
        g = initial_data(r, params)
        assert np.all(np.diff(g) < 0)


class TestStability:
    def test_limit_is_the_spectral_bound(self):
        # the top mode sits at the origin, so 50 and 400 nodes agree
        for n in range(2, 11):
            for n_nodes in (50, 400):
                assert abs(max_stable_cfl(n) - spectral_limit(n, n_nodes)) <= 1e-12, (n, n_nodes)
        assert [round(max_stable_cfl(n), 4) for n in (2, 3, 4, 5, 6, 8, 10)] == [
            0.9089, 0.7926, 0.7004, 0.6305, 0.5768, 0.4999, 0.4472
        ]

    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_limit_is_sharp(self, n):
        # from a spike at the origin, 2% above the limit the free scheme
        # grows by more than 1e6 within 100 steps; 2% below it stays
        # within 4 times the spike over 2000 steps
        def amplitudes(factor, n_levels):
            params = replace(FREE_PARAMS, n=n)
            grid = GridSpec(dr=1.0, r_max=63.0, t_max=1.0, cfl=factor * max_stable_cfl(n))
            levels = full_grid_levels(Form.FREE, params, grid, g=lambda r: (r == 0.0) / grid.dt)
            return np.array([np.max(np.abs(u)) for _, _, u in itertools.islice(levels, n_levels)])

        assert amplitudes(1.02, 100)[-1] > 1e6
        assert amplitudes(0.98, 2000).max() <= 4.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=10**5))
    def test_limit_is_finite_and_at_most_one(self, n):
        assert 0.0 < max_stable_cfl(n) <= 1.0

    def test_run_rejects_unstable_cfl(self):
        grid = GridSpec(dr=0.1, r_max=10.0, t_max=2.0, cfl=0.9)
        with pytest.raises(ConfigurationError, match="stability"):
            run(Form.FREE, FREE_PARAMS, grid)

    @pytest.mark.parametrize("form", [Form.U, Form.V])
    def test_a_negative_mass_lowers_the_limit(self, form):
        # c u/(1+t)^2 adds -dt^2 c/(1+t)^2 to the spectrum of -dt^2 L, the most at
        # t = 0, and leapfrog needs (cfl/limit)^2 + dt^2 max(0, -c)/4 <= 1; at
        # mu = 2 both forms have c = -nu
        grid = GridSpec(dr=0.1, r_max=4.0, t_max=1.0, cfl=0.7)
        nu_edge = 4.0 * (1.0 - (grid.cfl / max_stable_cfl(3)) ** 2) / grid.dt**2  # 179.6
        params = ModelParams(n=3, mu=2.0, nu=nu_edge * (1.0 - 1e-9), p=1.8, kbar=0.5, eps=0.05)
        assert run(form, params, grid).outcome == "Survived"
        with pytest.raises(ConfigurationError, match=r"^the mass term c u/\(1\+t\)\^2, c = -179\.6\d*, .* > 1 for n = 3; lower dr$"):
            run(form, replace(params, nu=nu_edge * (1.0 + 1e-9)), grid)

    def test_run_rejects_open_domain_of_dependence(self):
        grid = GridSpec(dr=0.1, r_max=5.0, t_max=4.0, cfl=0.7)
        with pytest.raises(ConfigurationError, match="r_max"):
            run(Form.FREE, FREE_PARAMS, grid)


class TestFirstStep:
    """`run`'s level 1 from u = 0, u_t = eps g, here with eps = 2, dt = 0.1."""

    PARAMS = ModelParams(n=3, mu=3.0, nu=0.0, p=2.0, kbar=0.5, eps=2.0)
    GRID = GridSpec(dr=0.2, r_max=6.0, t_max=1.0, cfl=0.5)

    def level_one(self, form):
        snap = run(form, self.PARAMS, self.GRID, g=gaussian, snapshot_times=[self.GRID.dt]).snapshots[0]
        assert snap.t == self.GRID.dt
        return snap.u, gaussian(snap.r)

    def test_potential_form(self):
        for form in (Form.U, Form.FREE):
            u, g = self.level_one(form)
            np.testing.assert_allclose(u, 0.2 * g, rtol=1e-15)

    def test_damped_form_correction(self):
        # v_tt(0) = -mu eps g: the factor 1 - mu dt/2
        u, g = self.level_one(Form.V)
        np.testing.assert_allclose(u, 0.2 * g * (1.0 - 0.15), rtol=1e-15)


class TestRun:
    def test_zero_data_fixed_point(self):
        grid = GridSpec(dr=0.1, r_max=6.0, t_max=2.0, cfl=0.7)
        for form in Form:
            res = run(form, BLOWUP_PARAMS, grid, g=lambda r: np.zeros_like(r))
            assert res.outcome == "Survived"
            assert res.amplitude_history[:, 1].max() == 0.0

    def test_blow_up_detected(self):
        grid = GridSpec(dr=0.1, r_max=26.0, t_max=10.0, cfl=0.7)
        res = run(Form.U, BLOWUP_PARAMS, grid, collect_history=False)
        assert res.outcome == "BlewUp"
        assert res.T_num is not None and 0 < res.T_num <= grid.t_max

    def test_T_num_stable_under_refinement(self):
        grid = GridSpec(dr=0.1, r_max=26.0, t_max=10.0, cfl=0.7)
        T = [
            run(Form.U, BLOWUP_PARAMS, g, collect_history=False).T_num
            for g in (grid, grid.refined(2))
        ]
        assert abs(T[1] - T[0]) / T[1] < 0.05

    def test_threshold_robustness(self):
        # blow-up is fast once triggered: detection barely moves over two decades
        Ts = []
        for thr in (1e8, 1e10):
            grid = GridSpec(dr=0.1, r_max=26.0, t_max=10.0, cfl=0.7, u_threshold=thr)
            Ts.append(run(Form.U, BLOWUP_PARAMS, grid, collect_history=False).T_num)
        assert abs(Ts[1] - Ts[0]) / Ts[0] < 0.02

    def test_survives_without_blow_up(self):
        params = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, eps=1e-3)
        grid = GridSpec(dr=0.1, r_max=8.0, t_max=3.0, cfl=0.7)
        res = run(Form.U, params, grid)
        assert res.outcome == "Survived"
        assert res.T_num is None and res.r_star is None
        assert res.t_end == pytest.approx(grid.t_max, abs=2 * grid.dt)

    def test_r_star_is_the_origin_for_the_criterion_7_model(self):
        params = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, M=0.02, eps=10.0)
        res = run(Form.U, params, GridSpec(dr=0.2, r_max=100.0, t_max=60.0, cfl=0.7), collect_history=False)
        assert res.T_num is not None
        assert res.r_star == 0.0

    def test_r_star_is_off_the_origin_for_a_bump_at_10(self):
        grid = GridSpec(dr=0.1, r_max=30.0, t_max=8.0, cfl=0.7)
        res = run(Form.U, BLOWUP_PARAMS, grid, g=lambda r: np.exp(-((r - 10.0) ** 2)), collect_history=False)
        assert res.T_num is not None
        assert abs(res.r_star - 10.0) < 0.5

    def test_non_finite_first_step_stops_there(self):
        grid = GridSpec(dr=0.1, r_max=26.0, t_max=10.0, cfl=0.7)
        for form in (Form.U, Form.V):
            res = run(form, BLOWUP_PARAMS, grid, g=lambda r: np.full_like(r, np.inf))
            assert res.outcome == "BlewUp"
            assert res.T_num == res.t_end == grid.dt
            assert len(res.amplitude_history) == 1

    def test_threshold_below_the_first_step_interpolates_from_level_0(self):
        # level 1 is dt eps g = 0.07 * 10 * 1 = 0.7 > u_threshold, level 0 is 0
        grid = GridSpec(dr=0.1, r_max=26.0, t_max=10.0, cfl=0.7, u_threshold=0.5)
        res = run(Form.U, replace(BLOWUP_PARAMS, eps=10.0), grid, g=np.ones_like)
        amp1 = res.amplitude_history[-1, 1]
        assert len(res.amplitude_history) == 1 and amp1 == pytest.approx(0.7, rel=1e-14)
        assert res.T_num == 0.5 / amp1 * grid.dt
        assert res.T_num == pytest.approx(0.05, rel=1e-14)

    @pytest.mark.parametrize("g, shape", [(lambda r: 1.0, "()"), (lambda r: r[:5], "(5,)")], ids=["scalar", "short"])
    def test_g_of_the_wrong_shape_is_named(self, g, shape):
        grid = GridSpec(dr=0.1, r_max=8.0, t_max=3.0, cfl=0.7)
        with pytest.raises(ConfigurationError, match=re.escape(f"g(r) must have the shape (81,) of r, got {shape}")):
            run(Form.U, BLOWUP_PARAMS, grid, g=g)

    def test_snapshot_validation(self):
        grid = GridSpec(dr=0.1, r_max=8.0, t_max=3.0, cfl=0.7)
        with pytest.raises(ConfigurationError):
            run(Form.FREE, FREE_PARAMS, grid, snapshot_times=[5.0])
        with pytest.raises(ConfigurationError, match="snapshot time nan"):
            run(Form.FREE, FREE_PARAMS, grid, snapshot_times=[float("nan"), 1.0])

    def test_snapshots_near_zero_take_the_nearest_level(self):
        # a request up to dt/2 is nearest to t = 0 (the tie dt/2 goes to the
        # even level 0), a later one to t = dt
        grid = GridSpec(dr=0.1, r_max=6.0, t_max=1.0, cfl=0.7)
        dt = grid.dt
        res = run(Form.FREE, FREE_PARAMS, grid, snapshot_times=[0.6 * dt, 0.5 * dt, 0.2 * dt, 0.0])
        assert [s.t for s in res.snapshots] == [0.0, 0.0, 0.0, dt]
        for snap in res.snapshots[:3]:
            assert snap.u.size == grid.n_nodes and not snap.u.any()
        assert res.snapshots[3].u.any()

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=400),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
        st.one_of(st.just(1e8), st.floats(min_value=0.01, max_value=0.5)),
    )
    @example(10, 3, 7, 203, [], 1e8)  # t_max = 1.015 = 14.5 dt, a tie; a sum of 14 dt's is 4e-16 short of 1.015 - dt/2
    @example(10, 3, 7, 400, [0.5], 1e8)  # a sum of 14 dt's is 0.9799999999999996, and 14 dt 0.9799999999999999
    @example(10, 3, 7, 400, [0.5], 0.3)  # the free wave at the origin peaks near 0.43 at t = 0.71
    def test_every_snapshot_time_is_served_once_at_its_level(self, hundredths, n, tenths, k, fractions, threshold):
        # each time s in [0, t_max], t_max itself too, is taken exactly once,
        # at the level grid.level(s) (ties to even), the rule of the last
        # level, unless the run stops first; every time reported is its level
        # times dt, bitwise
        cfl, t_max = min(tenths / 10, max_stable_cfl(n)), k * 0.005
        grid = GridSpec(dr=hundredths / 100, r_max=t_max / cfl + 1.0, t_max=t_max, cfl=cfl, u_threshold=threshold)
        dt, times = grid.dt, [f * t_max for f in fractions] + [t_max]
        res = run(Form.FREE, replace(FREE_PARAMS, n=n), grid, g=gaussian, snapshot_times=times)
        J = len(res.amplitude_history)
        assert res.t_end == J * dt
        assert np.array_equal(res.amplitude_history[:, 0], dt * np.arange(1, J + 1))
        if res.outcome == "Survived":
            assert J == round(t_max / dt)
            assert len(res.snapshots) == len(times)
        else:
            assert (J - 1) * dt <= res.T_num <= J * dt
            assert res.amplitude_history[-1, 1] >= threshold > res.amplitude_history[:-1, 1].max(initial=0.0)
        served = [round(s / dt) for s in sorted(times) if round(s / dt) < J or res.outcome == "Survived"]
        assert [snap.t for snap in res.snapshots] == [j * dt for j in served]

    def test_finite_propagation(self):
        # perturb the data inside r <= R0; beyond the discrete influence
        # cone (one node per step) the two runs agree bitwise
        R0 = 2.0
        grid = GridSpec(dr=0.1, r_max=14.0, t_max=4.0, cfl=0.7)
        t_obs = 2.1
        bump = lambda r: initial_data(r, FREE_PARAMS) + np.where(r <= R0, 1.0, 0.0)
        res_a = run(Form.U, FREE_PARAMS, grid, snapshot_times=[t_obs])
        res_b = run(Form.U, FREE_PARAMS, grid, g=bump, snapshot_times=[t_obs])
        sa, sb = res_a.snapshots[0], res_b.snapshots[0]
        steps = int(round(sa.t / grid.dt))
        i0 = int(math.ceil(R0 / grid.dr))
        safe = i0 + steps + 1
        assert sa.u.size > safe + 5
        assert np.array_equal(sa.u[safe:], sb.u[safe:])
        assert not np.array_equal(sa.u[:safe], sb.u[:safe])


class TestFreeWaveAccuracy:
    def test_convergence_against_spherical_means(self):
        errs = []
        for dr in (0.08, 0.04):
            grid = GridSpec(dr=dr, r_max=18.0, t_max=8.0, cfl=0.7)
            tc = round(5.0 / grid.dt) * grid.dt
            res = run(Form.FREE, FREE_PARAMS, grid, g=gaussian, snapshot_times=[tc], collect_history=False)
            snap = res.snapshots[0]
            exact = exact_free_wave_n3(snap.t, snap.r, lambda s: math.exp(-s * s))
            errs.append(np.max(np.abs(snap.u - exact)))
        order = math.log2(errs[0] / errs[1])
        assert 1.7 <= order <= 2.3

    def test_quadrature_oracle_against_closed_form(self):
        # for g = exp(-s^2) the spherical mean integrates in closed form
        t = 3.0
        r = np.array([0.0, 0.4, 1.0, 2.7, 5.0])
        oracle = exact_free_wave_n3(t, r, lambda s: math.exp(-s * s), eps=2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            closed = 2.0 * (np.exp(-((r - t) ** 2)) - np.exp(-((r + t) ** 2))) / (4.0 * r)
        closed[0] = 2.0 * t * math.exp(-t * t)
        np.testing.assert_allclose(oracle, closed, rtol=1e-10)

    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0, 8.0])
    def test_quadrature_oracle_against_scipy(self, t):
        from scipy.integrate import quad

        def reference(g, r):
            lo, hi = abs(r - t), r + t
            kink = [1.0] if lo < 1.0 < hi else None  # where the bump's support ends
            return quad(lambda s: s * g(s), lo, hi, points=kink, epsabs=0.0, epsrel=1e-13, limit=500)[0] / (2.0 * r)

        r = np.array([0.05, 0.3, 0.9, 1.0, 1.7, 3.2, 5.0, 7.5, 12.0])
        gauss = lambda s: math.exp(-s * s)  # noqa: E731
        bump = lambda s: max(0.0, 1.0 - s * s) ** 3  # noqa: E731  C^2, support [0, 1]
        closed = (np.exp(-((r - t) ** 2)) - np.exp(-((r + t) ** 2))) / (4.0 * r)
        oracle = exact_free_wave_n3(t, r, gauss)
        np.testing.assert_allclose(oracle, closed, rtol=1e-11)
        np.testing.assert_allclose(oracle, [reference(gauss, rv) for rv in r], rtol=1e-11)
        np.testing.assert_allclose(exact_free_wave_n3(t, r, bump), [reference(bump, rv) for rv in r], rtol=1e-11)

    def test_quadrature_oracle_where_u_changes_sign(self):
        # g = (1 - s^2) exp(-s^2) has s g(s) = d/ds [s^2 exp(-s^2) / 2], and
        # u(2, r) changes sign at r = 1.99865134603...: a tolerance relative
        # to the signed integral could not be met there, one relative to the
        # integral of |s g(s)| can
        t = 2.0
        r = np.array([1.9986513460302162, 1.99865, 1.9987, 1.5, 2.5])
        oracle = exact_free_wave_n3(t, r, lambda s: (1.0 - s * s) * math.exp(-s * s))
        F = lambda s: s * s * np.exp(-s * s) / 2.0  # noqa: E731
        np.testing.assert_allclose(oracle, (F(r + t) - F(np.abs(r - t))) / (2.0 * r), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("g", [lambda s: 1.0 / abs(s - 1.0), lambda s: math.nan], ids=["non-integrable", "nan"])
    def test_quadrature_oracle_raises_within_one_second(self, g):
        def expire(signum, frame):
            raise TimeoutError("exact_free_wave_n3 ran for more than 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ArithmeticError):
                exact_free_wave_n3(2.0, 1.5, g)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("r", [0.0, 0.5, [0.5, 0.0]])
    def test_quadrature_oracle_raises_on_non_finite_g_at_every_radius(self, r):
        # at r = 0 the value is the limit eps t g(t), not a quadrature
        with pytest.raises(ArithmeticError):
            exact_free_wave_n3(1.0, r, lambda s: math.nan)

    @pytest.mark.parametrize(
        "g",
        [
            lambda s: math.exp(-s * s),
            lambda s: 2,
            lambda s: np.exp(-s * s),
            lambda s: np.array(max(0.0, 1.0 - s * s) ** 3),
        ],
        ids=["float", "int", "float64", "0-d array"],
    )
    def test_quadrature_oracle_equals_vectorize_reference(self, g):
        def reference(t, r, g, eps):
            # the oracle's gap scheme written with np.vectorize over g: same
            # calls of g, same floats
            inner = r != 0.0
            out = np.full_like(r, eps * t * g(t))
            vg, rv = np.vectorize(g, otypes=[float]), r[inner]
            lo, hi = np.abs(rv - t), rv + t
            ends = np.sort(np.r_[lo, hi])
            pieces = np.append(integrate(lambda s: s * vg(s), ends[:-1], ends[1:], rtol=1e-12), 0.0)
            first, last = np.searchsorted(ends, lo), np.searchsorted(ends, hi)
            sums = np.add.reduceat(pieces, np.c_[first, last].ravel())[::2]
            out[inner] = eps / (2.0 * rv) * np.where(first < last, sums, 0.0)
            return out

        r = np.array([0.0, 0.05, 0.5, 1.0, 2.0, 3.7, 9.0])
        for t in (0.0, 0.5, 2.0):
            assert np.array_equal(exact_free_wave_n3(t, r, g, eps=1.5), reference(t, r, g, 1.5))
        assert exact_free_wave_n3(2.0, 3.7, g) == reference(2.0, np.array([3.7]), g, 1.0)[0]

    def test_quadrature_oracle_on_random_radii(self):
        # unsorted radii with duplicates and zeros, reaching gaps between
        # endpoints deep in the Gaussian tail, some with subnormal s g(s);
        # the closed form written with expm1 keeps its relative accuracy at
        # small r t, and values below 1e-290 have none to compare
        rng = np.random.default_rng(7)
        gauss = lambda s: math.exp(-s * s)  # noqa: E731
        for t in (0.0, *rng.uniform(0.0, 8.0, 24)):
            r = rng.uniform(0.0, 30.0, 40)
            r[:3] = [0.0, r[7], 0.0]
            rng.shuffle(r)
            with np.errstate(divide="ignore", invalid="ignore"):
                closed = -np.exp(-((r - t) ** 2)) * np.expm1(-4.0 * r * t) / (4.0 * r)
            closed[r == 0.0] = t * math.exp(-t * t)
            normal = np.abs(closed) > 1e-290
            np.testing.assert_allclose(exact_free_wave_n3(t, r, gauss)[normal], closed[normal], rtol=1e-11, atol=0.0)

    def test_quadrature_oracle_calls_g_about_36_times_per_radius(self):
        # the benchmark's finest free-wave snapshot: every gap between sorted
        # endpoints takes 6 + 12 calls when its first halving is accepted
        grid = GridSpec(dr=0.005, r_max=18.0, t_max=8.0, cfl=0.7)
        tc = round(5.0 / grid.dt) * grid.dt
        r = grid.radii()[: causal_node_count(grid, tc)]
        calls = 0

        def g(s):
            nonlocal calls
            calls += 1
            return math.exp(-s * s)

        exact_free_wave_n3(tc, r, g)
        assert calls <= 40 * r.size

    @pytest.mark.parametrize(
        "t, r, name",
        [
            (1.0, -0.5, "r"),  # r < 0 gives the quadrature an interval with lo > hi
            (1.0, -3.0, "r"),
            (1.0, [0.5, -3.0], "r"),
            (1.0, math.nan, "r"),
            (1.0, math.inf, "r"),
            (-1.0, 0.5, "t"),
            (math.nan, 0.5, "t"),
            (math.inf, 0.5, "t"),
        ],
    )
    def test_quadrature_oracle_rejects_negative_or_non_finite_arguments(self, t, r, name):
        with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0"):
            exact_free_wave_n3(t, r, lambda s: math.exp(-s * s))

    @pytest.mark.parametrize("lo, hi", [(1.0, -0.5), (0.5, [1.0, 0.2]), (0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)])
    def test_quadrature_rejects_reversed_or_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="lo <= hi"):
            integrate(np.exp, lo, hi, rtol=1e-12)

    def test_energy_drift_small(self):
        grid = GridSpec(dr=0.08, r_max=14.0, t_max=5.0, cfl=0.7)
        assert max_energy_drift(FREE_PARAMS, grid, gaussian, int(round(grid.t_max / grid.dt))) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_free_form_survives_and_conserves_energy(self, n):
        # the benchmark's dimension probe: Gaussian data at 0.9 times the
        # limit over t in [0, 30]
        params = replace(FREE_PARAMS, n=n)
        cfl = 0.9 * max_stable_cfl(n)
        grid = GridSpec(dr=0.05, r_max=30.0 / cfl + 5.0, t_max=30.0, cfl=cfl)
        res = run(Form.FREE, params, grid, g=gaussian, collect_history=False)
        assert res.outcome == "Survived", res.T_num
        assert max_energy_drift(params, grid, gaussian, int(round(grid.t_max / grid.dt))) <= 1e-12


class TestOddDimensionDescent:
    """Exact free waves for odd n by descent: if u solves the radial wave
    equation in n dimensions, (1/r) u_r solves it in n + 2.  From
    u_3 = (exp(-(r-t)^2) - exp(-(r+t)^2))/(4r), with u_3(0) = 0 and
    u_3,t(0) = exp(-r^2), the n = 3 + 2k solution has u(0) = 0 and
    u_t(0) = (-2)^k exp(-r^2)."""

    @staticmethod
    def exact(n):
        import sympy
        r, t = sympy.symbols("r t", positive=True)
        u = (sympy.exp(-((r - t) ** 2)) - sympy.exp(-((r + t) ** 2))) / (4 * r)
        for _ in range((n - 3) // 2):
            u = sympy.diff(u, r) / r
        residual = sympy.diff(u, t, 2) - sympy.diff(u, r, 2) - (n - 1) / r * sympy.diff(u, r)
        return sympy.lambdify((t, r), u, "numpy"), sympy.lambdify((t, r), residual, "numpy")

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_reference_solves_the_wave_equation(self, n):
        u, residual = self.exact(n)
        tt, rr = np.meshgrid([0.3, 1.0, 2.5, 4.0], np.linspace(0.6, 7.0, 9))
        assert np.max(np.abs(residual(tt, rr))) <= 1e-9 * np.max(np.abs(u(tt, rr)))
        np.testing.assert_allclose(u(0.0, rr), 0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_second_order_against_descent_reference(self, n):
        u, _ = self.exact(n)
        params = replace(FREE_PARAMS, n=n)
        g = lambda r: (-2.0) ** ((n - 3) // 2) * gaussian(r)  # noqa: E731
        errs = []
        for dr in (0.08, 0.04, 0.02, 0.01):
            grid = GridSpec(dr=dr, r_max=20.0, t_max=3.2, cfl=0.4)
            snap = run(Form.FREE, params, grid, g=g, snapshot_times=[3.2], collect_history=False).snapshots[0]
            far = snap.r > 0.5
            r, err = snap.r[far], snap.u[far] - u(snap.t, snap.r[far])
            errs.append(math.sqrt(dr * np.sum(r ** (n - 1) * err**2)))
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert all(1.8 <= o <= 2.2 for o in orders), (errs, orders)


class TestEvenDimensionHankel:
    """Exact free waves for any n by the Hankel transform: with u(0) = 0
    and u_t(0) = exp(-r^2),

        u(t, r) = 2^(-n/2) r^(-nu) int_0^inf sin(kt) exp(-k^2/4) J_nu(kr) k^nu dk,

    nu = n/2 - 1, by scipy's `quad` on k in [0, 40], where exp(-k^2/4) has
    fallen to e^-400.  It stops at n = 8: at n = 10 `quad` warns of
    roundoff at a far radius, where u is many orders below the integrand
    it cancels out of, and the odd dimensions have the descent reference."""

    @staticmethod
    def exact(n, t, r):
        from scipy.integrate import quad
        from scipy.special import jv

        nu = n / 2.0 - 1.0

        def integrand(k, rv):
            return math.sin(k * t) * math.exp(-k * k / 4.0) * jv(nu, k * rv) * k**nu

        quads = [quad(integrand, 0.0, 40.0, args=(rv,), limit=400, epsabs=1e-14, epsrel=1e-12)[0] for rv in r]
        return 2.0 ** (-n / 2.0) * np.asarray(r) ** (-nu) * np.array(quads)

    def test_reference_is_the_closed_form_at_n_3(self):
        r = np.linspace(0.1, 8.0, 81)
        np.testing.assert_allclose(self.exact(3, 2.0, r), gaussian_free_wave_n3(2.0, r), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_second_order_against_hankel_reference(self, n):
        # on the coarse nodes; the origin, where r^(-nu) is singular, has weight r^(n-1) = 0
        params, ref, errs = replace(FREE_PARAMS, n=n), None, []
        for level, dr in enumerate((0.08, 0.04, 0.02, 0.01)):
            grid = GridSpec(dr=dr, r_max=20.0, t_max=3.2, cfl=0.4)
            snap = run(Form.FREE, params, grid, g=gaussian, snapshot_times=[3.2], collect_history=False).snapshots[0]
            if ref is None:
                r, ref = snap.r[1:], self.exact(n, snap.t, snap.r[1:])
            err = snap.u[:: 2**level][1 : r.size + 1] - ref
            errs.append(math.sqrt(0.08 * np.sum(r ** (n - 1) * err**2)))
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert all(1.8 <= o <= 2.2 for o in orders), (errs, orders)


def textbook_step(t, u_prev, u_curr, grid, params, form):
    """The leapfrog update as plain array expressions over the whole grid,
    the outer node frozen: the reference the solver's in-place kernel is
    checked against.  L u is the net flux r^(n-1) u_r through each cell's
    faces over its volume."""
    dt, dr, n = grid.dt, grid.dr, params.n
    u, up = u_curr, u_prev
    outer, _, volume = cell_faces(grid, n)
    flux = outer ** (n - 1) * np.append(np.diff(u), 0.0) / dr  # through the outer face
    lap = (flux - np.append(0.0, flux[:-1])) / volume  # the origin cell has no inner face
    mu, nu, p = params.mu, params.nu, params.p
    if form is Form.V:
        beta = mu * dt / (2.0 * (1.0 + t))
        mass = nu * u / (1.0 + t) ** 2
        u_next = (2.0 * u - (1.0 - beta) * up + dt**2 * (lap + np.abs(u) ** p - mass)) / (1.0 + beta)
    else:
        src = 0.0
        if form is Form.U:
            coeff = 0.25 * mu * (mu - 2.0) - nu
            src = (1.0 + t) ** (-mu * (p - 1.0) / 2.0) * np.abs(u) ** p + coeff * u / (1.0 + t) ** 2
        u_next = 2.0 * u - up + dt**2 * (lap + src)
    u_next[-1] = u[-1]
    return u_next


NU_PARAMS = ModelParams(n=3, mu=3.0, nu=0.5, p=1.8, kbar=0.5, M=1.0, eps=5.0)


def kernel_grid(params):
    return GridSpec(dr=0.1, r_max=26.0, t_max=10.0, cfl=min(0.7, max_stable_cfl(params.n)))


class TestKernelEquivalence:
    """`run` updates only the causal window, in place; `full_grid_levels`
    updates the whole grid.  Both go through one kernel, checked here
    against `textbook_step`: the weights regroup its sums, so they agree to
    rounding, not bitwise."""

    CASES = [
        pytest.param(Form.U, BLOWUP_PARAMS, id="u"),
        pytest.param(Form.V, BLOWUP_PARAMS, id="v"),
        pytest.param(Form.FREE, BLOWUP_PARAMS, id="free"),
        pytest.param(Form.U, NU_PARAMS, id="u-mass"),  # c = (mu/2)(mu/2-1) - nu = 0.25
        pytest.param(Form.V, NU_PARAMS, id="v-mass"),  # c = -nu
        pytest.param(Form.U, replace(BLOWUP_PARAMS, mu=0.0), id="u-undamped"),  # a = 1
        # the weights depend on n
        *(pytest.param(Form.U, replace(BLOWUP_PARAMS, n=n), id=f"u-n{n}") for n in (2, 4, 5)),
    ]
    BLOW_UP_CASES = [case for case in CASES if case.values[0] is not Form.FREE]

    @pytest.mark.parametrize("form, params", CASES)
    def test_run_matches_full_grid_steps(self, form, params):
        grid = kernel_grid(params)
        res = run(form, params, grid, snapshot_times=[1.0, 2.5, 4.0, 10.0])
        hist = res.amplitude_history
        levels = list(itertools.islice(full_grid_levels(form, params, grid), len(hist)))
        for level, (_, _, got) in zip(levels[:40], levels[1:]):
            np.testing.assert_allclose(got, textbook_step(*level, grid, params, form), rtol=1e-14, atol=0.0)

        assert [t for t, _, _ in levels] == list(hist[:, 0])
        for (t, _, u), amp in zip(levels, hist[:, 1]):
            assert amp == np.max(np.abs(u[: causal_node_count(grid, t)]))
        by_time = {t: u for t, _, u in levels}
        for snap in res.snapshots:
            ref = by_time[snap.t]
            assert snap.u.size == causal_node_count(grid, snap.t)
            assert np.array_equal(snap.u, ref[: snap.u.size])
        if form is Form.FREE:
            assert res.outcome == "Survived" and len(res.snapshots) == 4
            return
        assert res.outcome == "BlewUp"
        (t0, a0), (t1, a1) = hist[-2], hist[-1]
        assert a0 < grid.u_threshold <= a1
        assert res.T_num == t0 + min(max((grid.u_threshold - a0) / (a1 - a0), 0.0), 1.0) * grid.dt

    def test_amplitude_is_max_abs(self):
        # the free scheme is linear and commutes with negation exactly
        grid = GridSpec(dr=0.1, r_max=14.0, t_max=4.0, cfl=0.7)
        pos = run(Form.FREE, FREE_PARAMS, grid, g=gaussian).amplitude_history
        neg = run(Form.FREE, FREE_PARAMS, grid, g=lambda r: -gaussian(r)).amplitude_history
        assert pos[:, 1].max() > 0.1
        assert np.array_equal(pos, neg)

    @pytest.mark.parametrize("form, params", BLOW_UP_CASES)
    def test_textbook_association_gives_same_T_num(self, form, params):
        # per-step agreement to rounding does not bound the drift over a run
        grid = kernel_grid(params)
        res = run(form, params, grid, collect_history=False)
        _, up, u = next(full_grid_levels(form, params, grid))
        j, amp = 1, np.max(np.abs(u[: causal_node_count(grid, grid.dt)]))
        while amp < grid.u_threshold:  # level j + 1 is stepped from the time j dt
            prev_amp = amp
            up, u, j = u, textbook_step(j * grid.dt, up, u, grid, params, form), j + 1
            amp = np.max(np.abs(u[: causal_node_count(grid, j * grid.dt)]))
        T_ref = (j - 1) * grid.dt + (grid.u_threshold - prev_amp) / (amp - prev_amp) * grid.dt
        assert res.T_num == pytest.approx(T_ref, rel=1e-12)

    def test_only_non_finite_values_stop_an_unbounded_threshold(self):
        grid = GridSpec(dr=0.1, r_max=26.0, t_max=10.0, cfl=0.7, u_threshold=math.inf)
        res = run(Form.U, BLOWUP_PARAMS, grid)  # steps without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            levels = list(itertools.islice(full_grid_levels(Form.U, BLOWUP_PARAMS, grid), len(res.amplitude_history)))
        amps = res.amplitude_history[:, 1]
        assert res.outcome == "BlewUp"
        assert np.all(np.isfinite(amps[:-1])) and not np.isfinite(amps[-1])
        assert amps[-2] > 1e100  # far past any finite threshold
        assert res.T_num == res.t_end == res.amplitude_history[-1, 0]
        assert res.T_num < grid.t_max
        windows = [u[: causal_node_count(grid, t)] for t, _, u in levels]
        first_bad = next(k for k, w in enumerate(windows) if not np.all(np.isfinite(w)))
        assert first_bad == len(levels) - 1
        assert levels[first_bad][0] == res.T_num


ODE_THRESHOLDS = (1e4, 1e8)
# c = (mu/2)(mu/2 - 1) - nu: 0 for the first, 1.75 for the second
ODE_PARAMS = (
    ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, eps=1.0),
    ModelParams(n=2, mu=3.0, nu=-1.0, p=1.5, kbar=0.5, eps=1.0),
)


@functools.cache
def ode_crossings(params, method="DOP853", rtol=1e-13):
    """Times at which U'' = (1+t)^(-w) |U|^p + c U/(1+t)^2, U(0) = 0,
    U'(0) = eps, with w = mu(p-1)/2 and c = (mu/2)(mu/2 - 1) - nu, crosses
    each of ODE_THRESHOLDS: the u-form with g = 1 in the causal region."""
    from scipy.integrate import solve_ivp

    w = params.mu * (params.p - 1.0) / 2.0
    c = params.mu / 2.0 * (params.mu / 2.0 - 1.0) - params.nu

    def rhs(t, y):
        u, v = y.tolist()
        return [v, (1.0 + t) ** -w * abs(u) ** params.p + c * u / (1.0 + t) ** 2]

    events = [lambda t, y, level=level: y[0] - level for level in ODE_THRESHOLDS]
    events[-1].terminal = True
    sol = solve_ivp(rhs, (0.0, 100.0), [0.0, params.eps], method=method, rtol=rtol, atol=1e-20, events=events)
    return tuple(float(times[0]) for times in sol.t_events)


def flat_run(params, dr, threshold, snapshot_fractions=()):
    """`run` with g = 1 up to 1.05 times the ODE's crossing time T; returns
    (run, T)."""
    T = ode_crossings(params)[ODE_THRESHOLDS.index(threshold)]
    grid = GridSpec(dr=dr, r_max=1.05 * T / 0.7 + 2.0, t_max=1.05 * T, cfl=0.7, u_threshold=threshold)
    times = [f * T for f in snapshot_fractions]
    return run(Form.U, params, grid, g=np.ones_like, snapshot_times=times, collect_history=False), T


@pytest.mark.filterwarnings("error")
class TestFlatDataOracle:
    """Every row of the stencil has D_i + A_i + B_i = 2, so flat data stay
    flat in the causal region, where the scheme is then the leapfrog of the
    ODE of `ode_crossings`: an exact blow-up time to measure T_num against."""

    def test_reference_agrees_with_a_second_integrator(self):
        dop853 = ode_crossings(ODE_PARAMS[0])
        radau = ode_crossings(ODE_PARAMS[0], "Radau", 1e-10)  # agrees to 6e-14
        for a, b in zip(dop853, radau, strict=True):
            assert abs(a - b) <= 1e-12 * a
        assert dop853 == pytest.approx((5.262854, 5.414343), abs=1e-6)

    @pytest.mark.parametrize("params", ODE_PARAMS, ids=["c=0", "c=1.75"])
    def test_causal_region_stays_flat_to_rounding(self, params):
        res, _ = flat_run(params, 0.05, 1e8, snapshot_fractions=(0.25, 0.5, 0.75, 0.99))
        assert len(res.snapshots) == 4
        for snap in res.snapshots:
            assert snap.u.size > 10
            assert np.ptp(snap.u) <= 1e-11 * abs(snap.u[0])

    # today's T_num - T_ode, rounded up at the third digit: a record of the
    # thresholded scheme's lag, not a target; a change that lowers it lowers
    # the record
    BASELINE = [
        (0, 0.2, 1e4, 6.30e-2), (0, 0.1, 1e4, 1.16e-2), (0, 0.05, 1e4, 2.98e-3), (0, 0.025, 1e4, 1.10e-3), (0, 0.0125, 1e4, 1.87e-4),
        (0, 0.2, 1e8, 2.03e-1), (0, 0.1, 1e8, 1.16e-1), (0, 0.05, 1e8, 4.59e-2), (0, 0.025, 1e8, 1.36e-2), (0, 0.0125, 1e8, 4.93e-3),
        (1, 0.1, 1e4, 9.09e-3), (1, 0.05, 1e4, 1.83e-3), (1, 0.1, 1e8, 4.53e-2), (1, 0.05, 1e8, 1.16e-2),
    ]  # fmt: skip

    @pytest.mark.parametrize("case, dr, threshold, ceiling", BASELINE)
    def test_T_num_lags_the_ode_by_at_most_the_recorded_error(self, case, dr, threshold, ceiling):
        res, T = flat_run(ODE_PARAMS[case], dr, threshold)
        assert 0.0 < res.T_num - T <= ceiling


class TestCausalRegion:
    def test_shrinks_at_grid_speed(self):
        grid = GridSpec(dr=0.1, r_max=10.0, t_max=4.0, cfl=0.5)
        n0 = causal_node_count(grid, 0.0)
        n1 = causal_node_count(grid, 1.0)  # 20 steps of dt = 0.05
        assert n0 - n1 == 20

    def test_late_snapshots_sit_on_their_levels(self):
        # run counts the window down by one node per step; over 5 000 levels
        # it must still agree with causal_node_count at the level's time
        grid = GridSpec(dr=0.1, r_max=501.0, t_max=350.0, cfl=0.7)
        times = [300.0, 340.03, 349.9, 350.0]
        res = run(Form.FREE, FREE_PARAMS, grid, g=gaussian, snapshot_times=times, collect_history=False)
        assert res.outcome == "Survived" and res.t_end == 5000 * grid.dt
        assert [snap.t for snap in res.snapshots] == [j * grid.dt for j in (4286, 4858, 4999, 5000)]
        for snap in res.snapshots:
            assert snap.u.size == snap.r.size == causal_node_count(grid, snap.t)
        assert res.snapshots[-1].u.size == grid.n_nodes - 5000


def window_per_step_run(form, params, grid, snapshot_times=()):
    """`run` with the kernel's window cut to the causal region at every
    step, m = max(N - j, 1) at level j: (T_num, t_end, amplitude history,
    [(t, r, u)] of the snapshots)."""
    kernel, r, dt, n_nodes = _Leapfrog(form, params, grid), grid.radii(), grid.dt, grid.n_nodes
    u, au, up = np.zeros_like(r), np.empty_like(r), dt * params.eps * initial_data(r, params)
    if form is Form.V:
        up *= 1.0 - params.mu * dt / 2.0
    pending, snaps, history = sorted(round(s / dt) for s in snapshot_times), [], []
    amp, T_num, nc = 0.0, None, n_nodes
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, round(grid.t_max / dt) + 1):
            if j:
                nc = max(n_nodes - j, 1)
                if j > 1:
                    kernel.bind(u, up, nc, au)((j - 1) * dt)
                u, up = up, u
                new_amp = float(np.abs(u[:nc], au[:nc]).max())
                history.append((j * dt, new_amp))
                if not math.isfinite(new_amp) or new_amp >= grid.u_threshold:
                    T_num = j * dt if not math.isfinite(new_amp) else (j - 1) * dt + (grid.u_threshold - amp) / (new_amp - amp) * dt
                    break
                amp = new_amp
            while pending and pending[0] == j:
                pending.pop(0)
                snaps.append((j * dt, r[:nc].copy(), u[:nc].copy()))
    return T_num, j * dt, np.array(history), snaps


class TestBlockWindow:
    """`run` cuts the kernel's window to the causal region once per 64 steps;
    the region must hold the floats of a window cut at every step."""

    @staticmethod
    def assert_same_run(form, params, grid, times):
        res = run(form, params, grid, snapshot_times=times)
        T_num, t_end, history, snaps = window_per_step_run(form, params, grid, times)
        assert res.T_num == T_num and res.t_end == t_end
        assert np.array_equal(res.amplitude_history, history, equal_nan=True)
        assert len(res.snapshots) == len(snaps)
        for snap, (t, r, u) in zip(res.snapshots, snaps):
            assert snap.t == t and np.array_equal(snap.r, r) and np.array_equal(snap.u, u)
        return res

    @pytest.mark.parametrize("form", list(Form))
    @pytest.mark.parametrize("steps", [40, 64, 65, 66, 200])
    def test_survived_runs_of_one_or_more_blocks(self, form, steps):
        # nu != 0 gives the u and v forms a mass term, dt^2 c != 0
        params = replace(NU_PARAMS, eps=0.5)
        grid = GridSpec(dr=0.1, r_max=26.0, t_max=steps * 0.07, cfl=0.7)
        assert round(grid.t_max / grid.dt) == steps
        res = self.assert_same_run(form, params, grid, [0.0, grid.t_max / 3.0, grid.t_max])
        assert res.outcome == "Survived" and len(res.snapshots) == 3

    @pytest.mark.parametrize("form", [Form.U, Form.V])
    def test_threshold_stop(self, form):
        res = self.assert_same_run(form, NU_PARAMS, kernel_grid(NU_PARAMS), [1.0, 2.5])
        assert res.outcome == "BlewUp" and res.amplitude_history[-1, 1] >= res.grid.u_threshold

    def test_non_finite_stop(self):
        grid = replace(kernel_grid(BLOWUP_PARAMS), u_threshold=math.inf)
        res = self.assert_same_run(Form.U, BLOWUP_PARAMS, grid, [1.0])
        assert res.outcome == "BlewUp" and not np.isfinite(res.amplitude_history[-1, 1])

    @pytest.mark.parametrize("form", list(Form))
    @pytest.mark.parametrize("left", [1, 2, 3])
    def test_window_ending_at_a_few_nodes(self, form, left):
        # 130 steps on N = 130 + left nodes: the last level keeps `left` of them
        params = replace(NU_PARAMS, eps=0.05)
        grid = GridSpec(dr=0.1, r_max=(129.2 + left) * 0.1, t_max=130 * 0.07, cfl=0.7)
        assert grid.n_nodes - round(grid.t_max / grid.dt) == left
        res = self.assert_same_run(form, params, grid, [grid.t_max])
        assert res.outcome == "Survived" and res.snapshots[-1].u.size == left


class TestPositivityAndLowerBound:
    def test_positive_and_above_seed_in_sigma(self):
        # before blow-up the solution dominates the seed envelope
        # C0 t^(m+1) / (r^m (r+t)^(kbar+1)) inside r - t >= max(2t, 1)
        params = BLOWUP_PARAMS
        grid = GridSpec(dr=0.05, r_max=30.0, t_max=6.0, cfl=0.7)
        t_obs = 4.0
        res = run(Form.U, params, grid, snapshot_times=[t_obs], collect_history=False)
        snap = res.snapshots[0]
        t = snap.t
        mask = snap.r - t >= np.maximum(2.0 * t, 1.0)
        assert mask.sum() > 10
        u_sigma = snap.u[mask]
        assert np.all(u_sigma >= -1e-8 * np.abs(snap.u).max())
        C0 = params.eps * 2.0 ** (params.m - 2) * params.M * (0.5) ** (params.kbar + 1.0)
        seed = C0 * t ** (params.m + 1) / (snap.r[mask] ** params.m * (snap.r[mask] + t) ** (params.kbar + 1.0))
        assert np.all(u_sigma >= 0.9 * seed)


class TestTransformCheck:
    def test_discrepancy_small_and_second_order(self):
        params = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, eps=0.05)
        discs = []
        for dr in (0.1, 0.05):
            grid = GridSpec(dr=dr, r_max=12.0, t_max=4.0, cfl=0.7)
            rep = transform_check(params, grid, times=[1.0, 2.0, 3.0, 4.0])
            discs.append(rep.max_rel_discrepancy)
        assert discs[0] < 0.02
        ratio = discs[0] / discs[1]
        assert 3.0 <= ratio <= 5.5

    def test_compare_forms_is_the_check_on_given_runs(self):
        params = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, eps=0.05)
        grid = GridSpec(dr=0.1, r_max=12.0, t_max=4.0, cfl=0.7)
        assert transform_times(grid) == (1.0, 2.0, 3.0, 4.0)
        assert transform_times(grid, [2.5]) == (2.5,)
        runs = [run(form, params, grid, snapshot_times=transform_times(grid)) for form in (Form.U, Form.V)]
        assert compare_forms(*runs) == transform_check(params, grid)

    def test_runs_on_different_grids_are_rejected_naming_both_times(self):
        # t = 1 is level 14 (0.98) at dr = 0.1 and level 29 (1.015) at dr = 0.05
        params = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, eps=0.05)
        runs = [run(form, params, GridSpec(dr=dr, r_max=12.0, t_max=4.0), snapshot_times=[1.0]) for form, dr in ((Form.U, 0.1), (Form.V, 0.05))]
        times = [res.snapshots[0].t for res in runs]
        assert times == [14 * runs[0].grid.dt, 29 * runs[1].grid.dt]
        with pytest.raises(ValueError, match=re.escape(f"snapshot times differ between forms: t = {times[0]} in the u-form, {times[1]} in the v-form")):
            compare_forms(*runs)

    def test_no_common_snapshot_rejected(self):
        grid = GridSpec(dr=0.1, r_max=26.0, t_max=10.0, cfl=0.7)
        runs = [run(form, BLOWUP_PARAMS, grid, snapshot_times=[9.9]) for form in (Form.U, Form.V)]
        assert runs[0].outcome == "BlewUp" and not runs[0].snapshots
        with pytest.raises(ValueError, match="no common snapshots"):
            compare_forms(*runs)

    def test_initial_agreement(self):
        # both forms share u(0) = v(0) = 0 and u_t(0) = v_t(0) = eps g
        params = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, eps=0.05)
        grid = GridSpec(dr=0.1, r_max=6.0, t_max=1.0, cfl=0.7)
        ru = run(Form.U, params, grid, snapshot_times=[0.0])
        rv = run(Form.V, params, grid, snapshot_times=[0.0])
        np.testing.assert_array_equal(ru.snapshots[0].u, rv.snapshots[0].u)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(dr=0.0, r_max=1.0, t_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(dr=0.1, r_max=1.0, t_max=1.0, cfl=1.5)
        with pytest.raises(ValueError):
            GridSpec(dr=0.1, r_max=1.0, t_max=1.0, u_threshold=0.0)
        for name in ("dr", "r_max", "t_max"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=name):
                    GridSpec(**{"dr": 0.1, "r_max": 1.0, "t_max": 1.0, name: bad})

    def test_refined(self):
        g = GridSpec(dr=0.1, r_max=5.0, t_max=2.0, cfl=0.7)
        g2 = g.refined(2)
        assert g2.dr == pytest.approx(0.05)
        assert g2.dt == pytest.approx(g.dt / 2.0)
        assert (g2.r_max, g2.t_max, g2.cfl) == (g.r_max, g.t_max, g.cfl)
