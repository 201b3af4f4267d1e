"""Acceptance suite: one test per criterion, each printing a PASS line
after its assertions (run with -s to see them inline).

Criterion 7 note: the initial velocity is eps * M * (1+r)^(-(kbar+1)), so
the physical data size is the product eps*M.  The sweep window is pinned
to eps in [2, 10]; the amplitude M = 0.02 places that window in the
small-data regime where the lifespan power law is the governing
mechanism.  At M = 1 the same eps window sits in the large-data (ODE
focusing) crossover and the fitted slope is about -0.55; see
docs in the repository README for the measurement.
"""

import dataclasses
import io
import math
from pathlib import Path

import numpy as np
import pytest

from blowuplab.bound_engine import (
    BoundConfig,
    derive_K,
    initial_state,
    iterate,
    closed_form,
    lifespan_upper_bound,
    seed_constant,
    verify_iteration_step,
)
from blowuplab.experiments import SweepSpec, check_upper_bound, sweep
from blowuplab.exponents import ModelParams, atlas, fujita, kbar_zero, lifespan_exponent, strauss
from blowuplab.solver import (
    Form,
    GridSpec,
    exact_free_wave_n3,
    run,
    transform_check,
)
from test_diagram import assert_same_text
from test_solver import max_energy_drift

DATA_DIR = Path(__file__).parent / "data"

SQRT17 = 4.1231056256176605498


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_exact_exponent_values():
    assert abs(strauss(5.0) - (3.0 + SQRT17) / 4.0) < 1e-12
    assert abs(kbar_zero(3, 2.0) - (-1.0 + SQRT17) / 2.0) < 1e-12
    rng = np.random.default_rng(314159)
    ds = 1.0 + 99.0 * rng.random(1000)
    worst = 0.0
    for d in ds:
        p = strauss(d)
        worst = max(worst, abs((d - 1.0) * p * p - (d + 1.0) * p - 2.0))
    assert worst < 1e-12
    report(1, f"strauss(5), kbar_zero(3,2) exact; worst quadratic residual {worst:.2e}")


def test_criterion_2_lifespan_exponent_identity():
    rng = np.random.default_rng(271828)
    checked = 0
    worst = 0.0
    while checked < 10_000:
        mu = float(rng.uniform(0.0, 4.0))
        kbar = float(rng.uniform(-0.9, 4.0))
        h = kbar + mu / 2.0
        if h <= 1e-6:
            continue
        p = 1.0 + float(rng.uniform(1e-4, 0.999)) * (fujita(h) - 1.0)
        params = ModelParams(n=3, mu=mu, nu=0.25 * mu * (mu - 2.0), p=p, kbar=kbar)
        a = lifespan_exponent(params)
        b = 1.0 / (2.0 / (p - 1.0) - mu / 2.0 - kbar)
        worst = max(worst, abs(a - b) / abs(b))
        checked += 1
    assert worst < 1e-12
    report(2, f"two exponent expressions agree over 10^4 tuples; worst rel dev {worst:.2e}")


def test_criterion_3_recursion_closed_form_and_log_bound():
    rng = np.random.default_rng(16180)
    checked = 0
    worst_ab = 0.0
    while checked < 1000:
        n = int(rng.integers(2, 9))
        mu = float(rng.uniform(0.0, 4.0))
        p = float(rng.uniform(1.1, 3.0))
        hi = 2.0 / (p - 1.0) - mu / 2.0
        if hi <= -0.9:
            continue
        kbar = float(rng.uniform(max(-0.9, hi - 3.0), hi - 0.01 * (hi + 1.0)))
        if not -1.0 < kbar < hi:
            continue
        cfg = BoundConfig(
            params=ModelParams(
                n=n, mu=mu, nu=0.0, p=p, kbar=kbar,
                M=float(rng.uniform(0.1, 10.0)), eps=float(rng.uniform(0.1, 10.0)),
            ),
            delta=float(rng.uniform(0.2, 3.0)),
            delta_m=float(rng.uniform(0.3, 3.0)),
        )
        _, S_limit = derive_K(cfg)
        state = initial_state(cfg)
        for k in range(2, 31):
            state = iterate(state, cfg)
            a, b = closed_form(k, cfg)
            worst_ab = max(
                worst_ab,
                abs(state.a - a) / max(1.0, abs(a)),
                abs(state.b - b) / max(1.0, abs(b)),
            )
            rhs = p ** (k - 1) * (seed_constant(cfg) - S_limit)
            assert state.logC >= rhs - 1e-9 * max(1.0, abs(rhs))
        checked += 1
    assert worst_ab < 1e-10
    report(3, f"recursion matches closed form to {worst_ab:.2e}; log-space bound holds for k <= 30")


def test_criterion_4_iteration_step_quadrature_oracle():
    rng = np.random.default_rng(99)
    worst = math.inf
    for n, mu, p in [(3, 2.0, 2.0), (3, 0.0, 2.0), (2, 2.0, 1.5)]:
        cfg = BoundConfig(params=ModelParams(n=n, mu=mu, nu=0.0, p=p, kbar=0.5))
        samples = []
        for _ in range(20):
            t = 1.0 + 9.0 * rng.random()
            r = t + max(2.0 * t / cfg.delta_m, cfg.delta) + 5.0 * rng.random()
            samples.append((t, r))
        rep = verify_iteration_step(initial_state(cfg), samples, cfg)
        assert rep.passed, f"(n,mu,p)=({n},{mu},{p}): worst ratio {rep.worst_ratio}"
        worst = min(worst, rep.worst_ratio)
    report(4, f"Duhamel lower-bound step holds at 60 region samples; worst ratio {worst:.3f}")


def test_criterion_5_free_wave_convergence_and_energy():
    params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5, eps=1.0)
    g = lambda r: np.exp(-np.asarray(r) ** 2)

    errs = []
    for dr in (0.08, 0.04, 0.02):
        grid = GridSpec(dr=dr, r_max=18.0, t_max=8.0, cfl=0.7)
        tc = round(5.0 / grid.dt) * grid.dt
        res = run(Form.FREE, params, grid, g=g, snapshot_times=[tc], collect_history=False)
        snap = res.snapshots[0]
        exact = exact_free_wave_n3(snap.t, snap.r, lambda s: math.exp(-s * s))
        errs.append(float(np.max(np.abs(snap.u - exact))))
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    assert all(1.8 <= o <= 2.2 for o in orders), orders

    grid = GridSpec(dr=0.05, r_max=16.0, t_max=10.0, cfl=0.7)
    drift = max_energy_drift(params, grid, g, int(round(grid.t_max / grid.dt)))
    assert drift <= 1e-12
    report(5, f"observed orders {[f'{o:.3f}' for o in orders]}, energy drift {drift:.2e} over t in [0, 10]")


def test_criterion_6_transform_equivalence_order():
    params = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, eps=0.05)
    discs = []
    for dr in (0.1, 0.05, 0.025):
        grid = GridSpec(dr=dr, r_max=12.0, t_max=4.0, cfl=0.7)
        rep = transform_check(params, grid, times=[1.0, 2.0, 3.0, 4.0])
        discs.append(rep.max_rel_discrepancy)
    orders = [math.log2(d0 / d1) for d0, d1 in zip(discs, discs[1:])]
    assert all(1.6 <= o <= 2.4 for o in orders), (discs, orders)
    report(6, f"u vs (1+t)^(mu/2) v discrepancy orders {[f'{o:.3f}' for o in orders]}")


def test_criterion_7_lifespan_scaling_sweep():
    params = ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, M=0.02, eps=1.0)
    alpha = lifespan_exponent(params)
    assert alpha == pytest.approx(1.0, rel=1e-12)
    spec = SweepSpec(
        params_base=params,
        eps_values=tuple(np.geomspace(2.0, 10.0, 5)),
        grid=GridSpec(dr=0.05, r_max=500.0, t_max=230.0, cfl=0.7),
        refinement_levels=2,
        form=Form.U,
    )
    result = sweep(spec)
    assert not result.survived_eps, result.note
    assert abs(result.slope + alpha) / alpha <= 0.25, result.slope
    assert result.r_squared >= 0.95, result.r_squared
    for pt in result.points:
        assert pt.refinement_agreement is not None and pt.refinement_agreement <= 0.05
    report(
        7,
        f"fitted slope {result.slope:.4f} vs -alpha = -1.0 (within 25%), "
        f"r^2 = {result.r_squared:.4f}, refinement agreement <= "
        f"{max(pt.refinement_agreement for pt in result.points):.2e}",
    )


def test_criterion_8_upper_bound_consistency_undamped_case():
    params = ModelParams(n=3, mu=0.0, nu=0.0, p=2.0, kbar=0.5, M=1.0, eps=2.0)
    spec = SweepSpec(
        params_base=params,
        eps_values=(2.0, 3.5, 6.0, 10.0),
        grid=GridSpec(dr=0.05, r_max=30.0, t_max=14.0, cfl=0.7),
        refinement_levels=1,
        form=Form.U,
    )
    bounds = {e: lifespan_upper_bound(BoundConfig(params=dataclasses.replace(params, eps=e), delta_m=1.0)) for e in spec.eps_values}
    rep = check_upper_bound(spec, sweep(spec), bounds)
    assert rep.conditional is True  # explicitly conditional on delta_m
    assert rep.all_ok
    for row in rep.rows:
        assert row.T_num <= row.T_upper
    margin = min(r.T_upper / r.T_num for r in rep.rows)
    report(
        8,
        f"every swept T_num below T_upper(eps) (min headroom x{margin:.3g}); "
        f"conditional on delta_m = {rep.delta_m}",
    )


def test_criterion_9_atlas_golden_reproduction():
    res = atlas(3, 2.0, 0.0, (-0.5, 4.0, 100), (1.05, 3.5, 100))

    # no blow-up verdict on or above the critical curve, checked directly
    for i, k in enumerate(res.kbar_values):
        pf = fujita(k + 1.0)
        for j, p in enumerate(res.p_values):
            if p >= pf:
                assert res.verdicts[i, j] != "BlowUpTheorem1"

    assert abs(kbar_zero(res.n, res.mu) - (-1.0 + SQRT17) / 2.0) < 1e-12
    assert abs(strauss(res.n + res.mu) - (3.0 + SQRT17) / 4.0) < 1e-12

    golden = (DATA_DIR / "atlas_golden_n3_mu2.csv").read_text(encoding="utf-8")
    csv = io.StringIO()
    res.to_csv(csv)
    assert_same_text(csv.getvalue(), golden)
    report(9, "100x100 atlas matches golden CSV; intersection matches criterion 1 values")
