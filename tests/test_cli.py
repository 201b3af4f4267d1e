import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from blowuplab import experiments, exponents, solver
from blowuplab.bound_engine import BoundConfig, LifespanBound, derive_K, lifespan_upper_bound
from blowuplab.cli import _build_parser, _merge, main
from blowuplab.experiments import SweepSpec
from blowuplab.exponents import ModelParams

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity, which JSON does not have."""

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestClassify:
    def test_blow_up_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "1", "--p", "1.6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "BlowUpTheorem1"
        assert payload["lifespan_exponent"] == pytest.approx(0.75)

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "1")
        assert code == 2
        assert "--p" in err

    def test_invalid_value(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "1", "--p", "0.5"
        )
        assert code == 2
        assert "p" in err

    def test_boundary_power_unknown(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "1", "--p", "2.0"
        )
        assert code == 0
        assert json.loads(out)["kind"] == "Unknown"

    @pytest.mark.parametrize("flag", ["--eps", "--M"])
    def test_data_size_and_amplitude_are_not_options(self, capsys, flag):
        # a verdict depends on n, mu, nu, kbar and p only
        code, out, err = run_cli(
            capsys, "classify", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "1", "--p", "1.6", flag, "1"
        )
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 1" in err


class TestBound:
    def test_stable_field_names(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"C0", "K", "S_limit", "C", "exponent", "T_upper", "delta", "delta_m", "conditional"}
        assert set(payload) == {field.name for field in dataclasses.fields(LifespanBound)}
        assert payload["conditional"] is True
        assert payload["exponent"] == pytest.approx(2.0)

    def test_outside_the_blow_up_region_names_the_hypothesis(self, capsys):
        # the mass is too large for the blow-up result, so no bound is given
        code, out, err = run_cli(
            capsys, "bound", "--n", "3", "--mu", "2", "--nu", "5", "--kbar", "0.5", "--p", "1.5"
        )
        assert code == 2
        assert out == ""
        assert "nu <= (mu/2)(mu/2 - 1)" in err

    def test_constants_come_from_the_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8"
        )
        assert code == 0
        payload = json.loads(out)
        cfg = BoundConfig(params=ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5), delta_m=1.0)
        bound = lifespan_upper_bound(cfg)
        assert (bound.K, bound.S_limit) == derive_K(cfg)
        assert payload == dataclasses.asdict(bound)

    def test_precondition_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "1.5", "--p", "2"
        )
        assert code == 2
        assert "kbar" in err

    def test_infinite_region_constant_rejected(self, capsys):
        # an infinite delta_m gave "C": Infinity, which is not JSON
        code, out, err = run_cli(
            capsys, "bound", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "2", "--delta-m", "inf"
        )
        assert code == 2
        assert out == ""
        assert "delta_m must be finite, got inf" in err

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    def test_delta_is_not_an_option(self, capsys, tmp_path, command):
        # the bound takes delta at its fixed point 2 T_upper/delta_m
        assert main([command, "--help"]) == 0
        assert "--delta " not in capsys.readouterr().out
        args = [command, "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "2"]
        if command == "sweep":
            args += ["--eps-values", "2,4,6,10", "--r-max", "20", "--t-max", "4", "--check-bound", "--out", str(tmp_path / "sw")]
        code, out, err = run_cli(capsys, *args, "--delta", "1")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --delta 1" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 1\n")
        code, out, err = run_cli(capsys, *args, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"{cfg}:1: unknown config key 'delta'" in err
        assert not (tmp_path / "sw").exists()

    def test_delta_beyond_the_float_range_is_null(self, capsys):
        # T_upper = 1.64e308 is finite, but delta = 2 T_upper/delta_m is not
        code, out, _ = run_cli(
            capsys, "bound", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "2.3", "--eps", "2.54e-8"
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["T_upper"] > 1e308 and payload["delta"] is None
        assert 0.0 < payload["C0"] < math.inf

    def test_C0_beyond_the_float_range_is_null(self, capsys):
        # C0 = 2.7e309 leaves the float range on its own; this exited 2 although the bound stood
        code, out, _ = run_cli(
            capsys, "bound", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "2", "--M", "1e10", "--eps", "1e300"
        )
        assert code == 0
        payload = strict_json(out)
        assert (payload["T_upper"], payload["delta"], payload["C0"]) == (1.0, 2.0, None)

    # J needs t > 1, so T_upper is at least 1: these printed 0.064 and 0.0
    @pytest.mark.parametrize(
        "args, C",
        [
            (("--p", "1.8", "--M", "0.02", "--eps", "1e9"), 1e9),
            (("--p", "2", "--eps", "1e300"), None),  # C = 1e600 is beyond the float range
        ],
    )
    def test_T_upper_is_at_least_one(self, capsys, args, C):
        code, out, _ = run_cli(capsys, "bound", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", *args)
        assert code == 0
        payload = strict_json(out)
        assert payload["T_upper"] == 1.0
        assert payload["delta"] == 2.0
        if C is None:
            assert payload["C"] is None
        else:
            assert payload["C"] == pytest.approx(C, rel=1e-14)

    # near the Fujita curve T_upper leaves the float range: log T_upper is
    # 2 581 at p = 2.33 and eps = 1, and 734 and 1 033 at p = 2.30 and
    # eps = 1e-8 and 1e-13
    @pytest.mark.parametrize("p, eps", [("2.33", "1"), ("2.30", "1e-8"), ("2.30", "1e-13")])
    def test_bound_beyond_the_float_range_exits_2(self, capsys, p, eps):
        code, out, err = run_cli(
            capsys, "bound", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", p, "--eps", eps
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: math range error: ") and "log T_upper = " in err


class TestAtlas:
    def test_artifacts_and_annotations(self, capsys, tmp_path):
        out_dir = tmp_path / "atl"
        code, out, _ = run_cli(
            capsys,
            "atlas", "--n", "3", "--mu", "2", "--nu", "0",
            "--kbar-count", "12", "--p-count", "12", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kbar0_exact"] == "(-1+√17)/2"
        assert payload["p_strauss_exact"] == "(3+√17)/4"
        svg = (out_dir / "atlas.svg").read_text(encoding="utf-8")
        assert "(-1+√17)/2" in svg
        assert "(3+√17)/4" in svg
        assert "k̄" in svg  # x-axis label
        csv = (out_dir / "atlas.csv").read_text(encoding="utf-8")
        assert csv.startswith("kbar,p,verdict,alpha\n")
        assert len(csv.strip().splitlines()) == 1 + 12 * 12

    @pytest.mark.parametrize(
        "n, mu, nu, exact",
        [("3", "2", "0", True), ("2", "2.5", "0.5625", False)],
        ids=["exact-labels", "non-integer-mu"],
    )
    def test_json_annotation_is_the_svg_annotation(self, capsys, tmp_path, n, mu, nu, exact):
        code, out, _ = run_cli(
            capsys, "atlas", "--n", n, "--mu", mu, "--nu", nu, "--kbar-count", "6", "--p-count", "6",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = strict_json(out)
        assert (payload["kbar0_exact"] is not None, payload["p_strauss_exact"] is not None) == (exact, exact)
        svg = (tmp_path / "atlas.svg").read_text(encoding="utf-8")
        texts = re.findall(r'font-size="14" font-family="sans-serif">([^<]*)</text>', svg)
        want = []
        for name, key in (("k̄0", "kbar0"), ("p_S", "p_strauss")):
            label = payload[key + "_exact"]
            want.append(f"{name} = {payload[key]:.6f}" if label is None else f"{name} = {label} ≈ {payload[key]:.6f}")
        assert texts == want

    def test_no_p_strauss_exits_2_with_nothing_written(self, capsys, tmp_path):
        out_dir = tmp_path / "atl"
        code, out, err = run_cli(capsys, "atlas", "--n", "2", "--mu", "-1.5", "--nu", "0", "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert "n + mu > 1" in err
        assert not out_dir.exists()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["atlas", "--n", "3", "--mu", "2", "--nu", "0", "--kbar-count", "8", "--p-count", "8"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        capsys.readouterr()
        assert (d1 / "atlas.csv").read_bytes() == (d2 / "atlas.csv").read_bytes()
        assert (d1 / "atlas.svg").read_bytes() == (d2 / "atlas.svg").read_bytes()


class TestSimulate:
    def test_single_form_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "sim"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--eps", "0.05", "--form", "u", "--dr", "0.1", "--r-max", "8", "--t-max", "3",
            "--snapshot-times", "1,2", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "Survived"
        assert payload["files"] == ["snapshots_u.csv"]
        lines = (out_dir / "snapshots_u.csv").read_text().splitlines()
        assert lines[0] == "t,r,u"
        assert len(lines) > 10
        assert (out_dir / "run_summary.json").exists()

    def test_both_forms_with_transform_check(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--eps", "0.05", "--form", "both", "--dr", "0.1", "--r-max", "8", "--t-max", "3",
            "--snapshot-times", "1,2,3", "--out", str(tmp_path / "simb"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["transform_check"]["max_rel_discrepancy"] < 0.02
        assert set(payload["files"]) == {"snapshots_u.csv", "snapshots_v.csv"}

    def test_both_forms_run_each_form_once(self, capsys, tmp_path, monkeypatch):
        # the transform check reuses the two runs; with no requested times it
        # compares the quarter times and the CSVs stay header-only
        forms = []
        real_run = solver.run

        def counting_run(form, *args, **kwargs):
            forms.append(form)
            return real_run(form, *args, **kwargs)

        monkeypatch.setattr(solver, "run", counting_run)
        out_dir = tmp_path / "simb"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--eps", "0.05", "--form", "both", "--dr", "0.1", "--r-max", "8", "--t-max", "3",
            "--out", str(out_dir),
        )
        assert code == 0
        assert forms == [solver.Form.U, solver.Form.V]
        assert json.loads(out)["transform_check"]["times"] == pytest.approx([0.75, 1.5, 2.25, 3.0], abs=0.04)
        for name in ("snapshots_u.csv", "snapshots_v.csv"):
            assert (out_dir / name).read_text(encoding="utf-8") == "t,r,u\n"

    # the u-form blows up at T_num ~ 4.73, before the first default check time t_max/4 = 5
    EARLY_BLOW_UP = [
        "simulate", "--n", "3", "--mu", "3", "--nu", "0.5", "--p", "1.5", "--kbar", "0.2",
        "--eps", "30", "--form", "both", "--dr", "0.1", "--r-max", "40", "--t-max", "20",
    ]

    def test_both_forms_early_blow_up_reports_an_empty_check(self, capsys, tmp_path):
        out_dir = tmp_path / "simb"
        code, out, _ = run_cli(capsys, *self.EARLY_BLOW_UP, "--out", str(out_dir))
        assert code == 0
        payload = json.loads(out)
        assert payload["transform_check"] == {"times": [], "discrepancies": [], "max_rel_discrepancy": None}
        assert payload["u"]["outcome"] == "BlewUp" and payload["u"]["T_num"] < 5.0
        assert payload["v"]["outcome"] == "BlewUp"
        assert json.loads((out_dir / "run_summary.json").read_text(encoding="utf-8")) == payload
        for name in ("snapshots_u.csv", "snapshots_v.csv"):
            assert (out_dir / name).read_text(encoding="utf-8") == "t,r,u\n"

    def test_both_forms_unreached_requested_times_rejected(self, capsys, tmp_path):
        out_dir = tmp_path / "simb"
        code, _, err = run_cli(capsys, *self.EARLY_BLOW_UP, "--snapshot-times", "6", "--out", str(out_dir))
        assert code == 2
        assert "no common snapshots" in err
        assert not (out_dir / "run_summary.json").exists()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--eps", "0.05", "--form", "u", "--dr", "0.1", "--r-max", "8", "--t-max", "3",
            "--snapshot-times", "1,2",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        capsys.readouterr()
        for name in ("snapshots_u.csv", "run_summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_single_form_collects_the_history_only_when_asked(self, capsys, tmp_path, monkeypatch):
        collected = []
        real_run = solver.run

        def recording_run(*args, **kwargs):
            collected.append(kwargs["collect_history"])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(solver, "run", recording_run)
        args = [
            "simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--eps", "0.05", "--form", "u", "--dr", "0.1", "--r-max", "8", "--t-max", "3",
        ]
        code, out, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        assert code == 0 and "max_amplitude_history" not in json.loads(out)
        code, out, _ = run_cli(capsys, *args, "--history", "--out", str(tmp_path / "b"))
        assert code == 0
        history = json.loads(out)["max_amplitude_history"]
        assert collected == [False, True]
        assert len(history) == 43 and history[0][0] == pytest.approx(0.07)  # levels 1..round(3/0.07)
        assert all(a > 0 for _, a in history)

    def test_unbounded_threshold_stops_without_a_warning(self, tmp_path):
        # only a non-finite level stops the run: |u|^p overflows on the way
        # there, and no numpy warning may reach stderr
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [
                sys.executable, "-W", "default", "-m", "blowuplab.cli",
                "simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8", "--M", "1",
                "--eps", "5", "--form", "u", "--dr", "0.05", "--r-max", "40", "--t-max", "20",
                "--u-threshold", "inf", "--out", str(tmp_path / "sim"),
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        payload = json.loads(proc.stdout)
        assert payload["outcome"] == "BlewUp" and payload["T_num"] < 20.0

    def test_non_finite_numbers_are_written_as_null(self, capsys, tmp_path):
        # the unbounded threshold and the last, non-finite amplitude of the
        # history are not JSON numbers
        out_dir = tmp_path / "sim"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8", "--eps", "5",
            "--dr", "0.1", "--r-max", "30", "--t-max", "15", "--u-threshold", "inf", "--history",
            "--out", str(out_dir),
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["grid"]["u_threshold"] is None
        assert payload["max_amplitude_history"][-1] == [pytest.approx(payload["T_num"]), None]
        assert strict_json((out_dir / "run_summary.json").read_text(encoding="utf-8")) == payload

    def test_unknown_form(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--form", "w", "--dr", "0.1", "--r-max", "8", "--t-max", "3", "--out", str(tmp_path),
        )
        assert code == 2
        assert "form" in err

    def test_infinite_radius_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--mu", "2", "--p", "1.8", "--kbar", "0.5",
            "--r-max", "inf", "--t-max", "1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "r_max" in err

    def test_nan_snapshot_time_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--mu", "2", "--p", "1.8", "--kbar", "0.5", "--dr", "0.1",
            "--r-max", "10", "--t-max", "2", "--snapshot-times", "nan,1", "--out", str(tmp_path / "sim"),
        )
        assert code == 2
        assert "snapshot time nan" in err
        assert not (tmp_path / "sim" / "snapshots_u.csv").exists()


@pytest.fixture
def run_calls(monkeypatch):
    """The arguments of each experiments.run call made in this process."""
    calls = []
    real_run = experiments.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(experiments, "run", counting_run)
    return calls


class TestSweepCommand:
    def test_csv_cardinality_and_summary(self, capsys, tmp_path):
        out_dir = tmp_path / "sw"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--eps-values", "5,7.5,11.25,16.875,25", "--dr", "0.1", "--r-max", "20",
            "--t-max", "8", "--refinement-levels", "1", "--jobs", "2", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"slope", "intercept", "r_squared", "alpha_theory", "pass"}
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "eps,T_num,refinement_agreement"
        assert len(lines) == 6
        assert (out_dir / "sweep_summary.json").exists()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "sweep", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--eps-values", "5,7.5,11.25,16.875", "--dr", "0.1", "--r-max", "20",
            "--t-max", "8", "--refinement-levels", "1", "--jobs", "2",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        capsys.readouterr()
        for name in ("sweep.csv", "sweep_summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_check_bound_artifact(self, capsys, tmp_path):
        out_dir = tmp_path / "swb"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "3", "--mu", "0", "--nu", "0", "--kbar", "0.5", "--p", "2",
            "--eps-values", "2,4,6,10", "--dr", "0.1", "--r-max", "20", "--t-max", "8",
            "--refinement-levels", "1", "--jobs", "1", "--check-bound", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_check"]["all_ok"] is True
        assert payload["bound_check"]["conditional"] is True
        assert (out_dir / "bound_check.json").exists()

    def test_check_bound_beyond_the_float_range_exits_2_before_any_write(self, capsys, tmp_path, run_calls):
        # the bound is computed before any solve: the sweep runs nothing
        out_dir = tmp_path / "swb"
        code, out, err = run_cli(
            capsys,
            "sweep", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "2.33",
            "--eps-values", "2,4,6,10", "--dr", "0.2", "--r-max", "20", "--t-max", "4",
            "--refinement-levels", "1", "--jobs", "1", "--check-bound", "--out", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: math range error: ")
        assert not out_dir.exists()
        assert run_calls == []

    def test_unwritable_out_exits_3_before_any_solve(self, capsys, tmp_path, run_calls):
        # --out lies under a regular file: creating it fails before any solve
        (tmp_path / "file").write_text("", encoding="utf-8")
        code, out, err = run_cli(
            capsys,
            "sweep", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8", "--M", "0.02",
            "--eps-values", "2,4,6,10", "--dr", "0.1", "--r-max", "250", "--t-max", "150", "--jobs", "1",
            "--out", str(tmp_path / "file" / "x"),
        )
        assert (code, out) == (3, "")
        assert err.startswith("i/o error: ")
        assert run_calls == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_eps_list_is_a_validation_error(self, capsys, tmp_path, source):
        args = [
            "sweep", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--dr", "0.2", "--r-max", "20", "--t-max", "4", "--out", str(tmp_path / "sw"),
        ]
        if source == "flag":
            args += ["--eps-values", ","]
        else:
            (tmp_path / "sweep.cfg").write_text("eps_values=,\n", encoding="utf-8")
            args += ["--config", str(tmp_path / "sweep.cfg")]
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert err == "error: need at least 4 eps values, got 0\n"
        assert not (tmp_path / "sw").exists()

    def test_incomplete_sweep_writes_a_null_fit(self, capsys, tmp_path):
        # every eps survives t_max = 8 at the criterion-7 model: no fit exists
        out_dir = tmp_path / "sw"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8", "--M", "0.02",
            "--eps-values", "0.5,1,2,4", "--dr", "0.2", "--r-max", "40", "--t-max", "8",
            "--refinement-levels", "1", "--jobs", "1", "--out", str(out_dir),
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["survived_eps"] == [0.5, 1.0, 2.0, 4.0] and payload["pass"] is False
        assert (payload["slope"], payload["intercept"], payload["r_squared"]) == (None, None, None)
        assert strict_json((out_dir / "sweep_summary.json").read_text(encoding="utf-8")) == payload


class TestConvergeCommand:
    def test_report_written(self, capsys, tmp_path):
        out_dir = tmp_path / "conv"
        code, out, _ = run_cli(
            capsys,
            "converge", "--n", "3", "--mu", "0", "--nu", "0", "--kbar", "0.5", "--p", "2",
            "--eps", "0.05", "--form", "free", "--dr", "0.1", "--r-max", "10", "--t-max", "4",
            "--levels", "4", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["profile_errors"]) == 3
        assert len(payload["profile_orders"]) == 2
        assert (out_dir / "convergence.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_compare_time_rejected(self, capsys, tmp_path, value):
        code, _, err = run_cli(
            capsys,
            "converge", "--n", "3", "--mu", "0", "--p", "2", "--kbar", "0.5", "--eps", "0.05",
            "--form", "free", "--dr", "0.1", "--r-max", "14", "--t-max", "4",
            "--compare-time", value, "--out", str(tmp_path / "conv"),
        )
        assert code == 2
        assert f"compare_time must be finite, got {value}" in err


@pytest.fixture
def compute_calls(monkeypatch):
    """The name of each exponents.atlas, solver.run and experiments.run call made in this process."""
    calls = []
    for module, name in ((exponents, "atlas"), (solver, "run"), (experiments, "run")):

        def spy(*args, _real=getattr(module, name), _name=f"{module.__name__}.{name}", **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


# each exits 2 once --out exists; the sweep fails a blow-up hypothesis and the
# simulation the causal closure r_max > t_max/cfl
FAILING = {
    "sweep": ("sweep", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "1", "--p", "2.5", "--eps-values", "1,2,3,4", "--r-max", "20", "--t-max", "4", "--jobs", "1"),
    "simulate": ("simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8", "--r-max", "5", "--t-max", "4"),
}


def tree(root: Path) -> dict:
    """Every path under `root` with the bytes of each file (None for a directory)."""
    return {path: path.read_bytes() if path.is_file() else None for path in sorted(root.rglob("*"))}


class TestOutDirectory:
    # both left an empty --out behind
    @pytest.mark.parametrize("command", sorted(FAILING))
    def test_a_failed_command_leaves_no_out(self, capsys, tmp_path, command):
        code, out, _ = run_cli(capsys, *FAILING[command], "--out", str(tmp_path / "x"))
        assert (code, out) == (2, "")
        assert tree(tmp_path) == {}

    def test_a_failed_command_removes_the_parents_it_made(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, *FAILING["simulate"], "--out", str(tmp_path / "a" / "b" / "c"))
        assert code == 2
        assert tree(tmp_path) == {}

    @pytest.mark.parametrize("holds_a_file", [False, True])
    def test_a_failed_command_leaves_an_existing_out_as_found(self, capsys, tmp_path, holds_a_file):
        (tmp_path / "x").mkdir()
        if holds_a_file:
            (tmp_path / "x" / "notes.txt").write_text("kept\n", encoding="utf-8")
        before = tree(tmp_path)
        for out_dir in (tmp_path / "x", tmp_path / "x" / "new"):
            code, _, _ = run_cli(capsys, *FAILING["sweep"], "--out", str(out_dir))
            assert code == 2
            assert tree(tmp_path) == before

    @pytest.fixture
    def interrupted_sweep(self, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "sweep", interrupt)
        return ("sweep", "--config", str(CONFIGS / "lifespan_sweep_c7.cfg"), "--jobs", "1")

    @pytest.mark.parametrize("out", ["x", "a/b/c"])
    def test_an_interrupted_command_exits_130_and_leaves_no_out(self, capsys, tmp_path, interrupted_sweep, out):
        code, stdout, err = run_cli(capsys, *interrupted_sweep, "--out", str(tmp_path / out))
        assert (code, stdout, err) == (130, "", "interrupted\n")
        assert tree(tmp_path) == {}

    @pytest.mark.parametrize("holds_a_file", [False, True])
    def test_an_interrupted_command_leaves_an_existing_out_as_found(self, capsys, tmp_path, interrupted_sweep, holds_a_file):
        (tmp_path / "x").mkdir()
        if holds_a_file:
            (tmp_path / "x" / "notes.txt").write_text("kept\n", encoding="utf-8")
        before = tree(tmp_path)
        for out_dir in (tmp_path / "x", tmp_path / "x" / "new"):
            code, _, _ = run_cli(capsys, *interrupted_sweep, "--out", str(out_dir))
            assert code == 130
            assert tree(tmp_path) == before

    # an --out under a regular file: creating it fails before anything is computed.
    # The no-p_S atlas exited 2 here: it raised before --out was made
    @pytest.mark.parametrize(
        "args",
        [
            ("atlas", "--n", "3", "--mu", "2", "--nu", "0", "--kbar-count", "4", "--p-count", "4"),
            ("atlas", "--n", "2", "--mu", "-1.5", "--nu", "0"),
            ("converge", "--n", "3", "--mu", "0", "--nu", "0", "--kbar", "0.5", "--p", "2", "--eps", "0.05",
             "--form", "free", "--dr", "0.2", "--r-max", "10", "--t-max", "4"),
            ("simulate", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8", "--eps", "0.05",
             "--dr", "0.1", "--r-max", "8", "--t-max", "3"),
        ],
        ids=["atlas", "atlas-no-p_S", "converge", "simulate"],
    )
    def test_unwritable_out_exits_3_before_any_computation(self, capsys, tmp_path, compute_calls, args):
        (tmp_path / "file").write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, *args, "--out", str(tmp_path / "file" / "x"))
        assert (code, out) == (3, "")
        assert err.startswith("i/o error: ")
        assert compute_calls == []


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nmu=2\nnu=0\nkbar=1\np=1.6\n")
        code, out, _ = run_cli(capsys, "classify", "--config", str(cfg), "--p", "2.4")
        assert code == 0
        # p = 2.4 from the flag, not 1.6 from the file
        assert json.loads(out)["kind"] == "GlobalExistenceLiterature"

    def test_config_alone(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nn=3\nmu=2\nnu=0\nkbar=1\np=1.6\n")
        code, out, _ = run_cli(capsys, "classify", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["kind"] == "BlowUpTheorem1"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nmu=2\nnu=0\nkbar=1\np=1.6\nbogus=1\n")
        code, _, err = run_cli(capsys, "classify", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("key", ["eps", "M"])
    def test_classify_rejects_data_keys(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n=3\nmu=2\nnu=0\nkbar=1\np=1.6\n{key}=1\n")
        code, out, err = run_cli(capsys, "classify", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"{cfg}:6: unknown config key {key!r}" in err

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "classify", "--config", str(tmp_path / "nope.cfg"))
        assert code == 3

    def test_misspelt_bool_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nmu=2\nnu=0\nkbar=0.5\np=1.8\nr_max=20\nt_max=8\neps_values=5,7.5,11.25,16.875\ncheck_bound=ture\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"))
        assert code == 2
        assert f"{cfg}:9" in err and "check_bound" in err and "ture" in err
        assert not (tmp_path / "sw").exists()

    def test_unknown_choice_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nmu=2\nkbar=0.5\np=1.8\nr_max=8\nt_max=3\nform = w\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"))
        assert code == 2
        assert f"{cfg}:7: bad value for 'form'" in err
        assert not (tmp_path / "sim").exists()


class TestCommittedConfigs:
    def test_atlas_config_runs(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "atlas", "--config", str(CONFIGS / "atlas_n3_mu2.cfg"), "--out", str(tmp_path))
        assert code == 0
        assert sum(json.loads(out)["counts"].values()) == 200 * 200
        assert len((tmp_path / "atlas.csv").read_text(encoding="utf-8").splitlines()) == 1 + 200 * 200
        assert (tmp_path / "atlas.svg").exists()

    def test_sweep_config_merges(self):
        args = _build_parser().parse_args(["sweep", "--config", str(CONFIGS / "lifespan_sweep_c7.cfg")])
        cfg = _merge(args)
        assert cfg["eps_values"] == tuple(np.geomspace(2.0, 10.0, 5))
        assert cfg["check_bound"] is True
        assert (cfg["p"], cfg["kbar"], cfg["M"], cfg["r_max"], cfg["t_max"]) == (1.8, 0.5, 0.02, 500.0, 230.0)


class TestJobs:
    def test_jobs_below_two_run_serially(self, capsys, tmp_path):
        # no worker: --jobs 0 and --jobs 1 run every chain in this process
        args = (
            "sweep", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "1.8",
            "--eps-values", "5,7.5,11.25,16.875", "--dr", "0.1", "--r-max", "20",
            "--t-max", "8", "--refinement-levels", "1",
        )
        outs = []
        for jobs in ("0", "1"):
            code, out, _ = run_cli(capsys, *args, "--jobs", jobs, "--out", str(tmp_path / jobs))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert (tmp_path / "0" / "sweep.csv").read_bytes() == (tmp_path / "1" / "sweep.csv").read_bytes()

    def test_a_ctrl_c_at_two_jobs_prints_only_interrupted_and_leaves_nothing(self, tmp_path):
        # SIGINT to the whole process group, as a terminal sends it, one
        # second into the criterion-7 sweep; three levels keep it running
        # well past that second
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        args = ["sweep", "--config", str(CONFIGS / "lifespan_sweep_c7.cfg"), "--refinement-levels", "3", "--jobs", "2"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "blowuplab.cli", *args, "--out", str(tmp_path / "out")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            time.sleep(1.0)
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
            left = subprocess.run(["pgrep", "-g", str(proc.pid)], capture_output=True, text=True).stdout
        finally:
            subprocess.run(["pkill", "-KILL", "-g", str(proc.pid)])
            proc.wait()
        assert (proc.returncode, stdout, stderr) == (130, "", "interrupted\n")
        assert not (tmp_path / "out").exists()
        assert left == ""


class TestHelp:
    def test_subcommand_help_lists_keys(self, capsys):
        code = main(["sweep", "--help"])
        out = capsys.readouterr().out
        assert code == 0
        for key in ("--eps-values", "--refinement-levels", "--cfl", "--u-threshold", "--jobs"):
            assert key in out

    def test_refinement_levels_default_is_the_sweep_spec_default(self, capsys):
        assert main(["sweep", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        shown = re.search(r"--refinement-levels REFINEMENT_LEVELS mesh refinement levels .*? \[default: (\d+)\]", text)
        assert int(shown.group(1)) == SweepSpec.refinement_levels


class TestImportCost:
    def test_loading_the_package_loads_no_pool(self):
        # a sweep imports multiprocessing when it runs, not before
        script = "import sys, blowuplab.cli; print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_code_path_needs_scipy(self, tmp_path):
        # a fresh interpreter in which every scipy import fails: the CLI's
        # closed-form paths and all three quadrature oracles must still run
        script = textwrap.dedent(
            """
            import contextlib, io, json, math, sys
            sys.modules["scipy"] = None
            from blowuplab import cli
            from blowuplab.bound_engine import BoundConfig, free_lower_bound, initial_state, verify_iteration_step
            from blowuplab.exponents import ModelParams
            from blowuplab.solver import exact_free_wave_n3

            model = ["--n", "3", "--mu", "2", "--nu", "0"]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [
                    cli.main(["classify", *model, "--kbar", "1", "--p", "1.6"]),
                    cli.main(["bound", *model, "--kbar", "0.5", "--p", "2"]),
                    cli.main(["atlas", *model, "--kbar-count", "10", "--p-count", "10", "--out", sys.argv[1]]),
                ]
            cfg = BoundConfig(params=ModelParams(n=3, mu=2.0, nu=0.0, p=2.0, kbar=0.5))
            values = [
                free_lower_bound(2.0, 8.0, cfg),
                verify_iteration_step(initial_state(cfg), [(2.0, 8.0)], cfg).worst_ratio,
                exact_free_wave_n3(1.0, 0.5, lambda s: math.exp(-s * s)),
            ]
            print(json.dumps({"codes": codes, "values": values}))
            """
        )
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "atlas")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0, 0]
        assert len(result["values"]) == 3
        assert all(math.isfinite(v) and v > 0 for v in result["values"])
        assert (tmp_path / "atlas" / "atlas.csv").exists()


def _unexpected(*args, **kwargs):
    raise RuntimeError("unexpected state")


SWEEP = ["sweep", "--n", "3", "--mu", "2", "--nu", "0", "--kbar", "0.5", "--p", "2", "--r-max", "20", "--t-max", "4"]


# each case reaches one check that no other test fires, and without that
# check it ends with another message or none
@pytest.mark.parametrize(
    "argv, config, broken, code, message",
    [
        (SWEEP + ["--eps-values", "1,x"], None, None, 2, "argument --eps-values: expected comma-separated floats, got '1,x'"),
        # off parses as false: the sweep gets as far as its eps grid
        (SWEEP, "check_bound = off\neps_values = 1,2\n", None, 2, "error: need at least 4 eps values, got 2"),
        (SWEEP, "eps_values\n", None, 2, ":1: expected key=value, got 'eps_values'"),
        (["classify", "--n", "3", "--mu", "2", "--kbar", "1", "--p", "1.6"], None, "classify", 4, "internal error: RuntimeError: unexpected state"),
    ],
)
def test_each_check_names_its_reason(capsys, monkeypatch, tmp_path, argv, config, broken, code, message):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "out")]
    if broken is not None:
        monkeypatch.setattr(exponents, broken, _unexpected)
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert message in err
    assert not (tmp_path / "out").exists()
