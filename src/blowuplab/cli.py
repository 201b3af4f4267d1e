"""Command-line entry point.

Subcommands: classify, bound, simulate, sweep, atlas, converge.  Every
subcommand prints a JSON summary to stdout (simulate, sweep and converge
also write those bytes to a summary file); file-producing subcommands
write their artifacts under --out with fixed names, and a failed one
leaves none of the --out directories it made.  A flat key=value config
file (--config) can supply any option; explicit flags win.  All outputs
are pure functions of the effective configuration, so repeated
invocations are byte-identical.

Exit codes: 0 success, 2 validation error or a result beyond the float range,
3 I/O error, 4 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from . import bound_engine, diagram, experiments, exponents, solver


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _bool(text: str) -> bool:
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text.strip()!r}")


def _choice(*words: str):
    """Type of an enumerated option: one of `words` in any letter case,
    returned in lower case."""

    def parse(text: str) -> str:
        word = text.strip().lower()
        if word not in words:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(words)}, got {text.strip()!r}")
        return word

    return parse


# option registry: dest -> (type, default, help); argparse defaults stay None
# so config-file values can slot under explicit flags.  A default that a
# dataclass field also has is read from the class.  REQUIRED marks
# options that must come from a flag or the config file; a None default
# marks options whose absence is meaningful.

REQUIRED = object()

# the five values a verdict depends on; with M and eps below, the keys are
# the ModelParams fields
_POINT_OPTS = {
    "n": (int, REQUIRED, "space dimension (integer >= 2); required"),
    "mu": (float, REQUIRED, "damping coefficient of mu/(1+t) v_t; required"),
    "nu": (float, 0.0, "mass coefficient of nu/(1+t)^2 v"),
    "p": (float, REQUIRED, "nonlinearity power (> 1); required"),
    "kbar": (float, REQUIRED, "data decay parameter (> -1); required"),
}

_MODEL_OPTS = {
    **_POINT_OPTS,
    "M": (float, exponents.ModelParams.M, "data amplitude (> 0)"),
    "eps": (float, exponents.ModelParams.eps, "data size (> 0)"),
}

_BOUND_OPTS = {
    "delta_m": (float, bound_engine.BoundConfig.delta_m, "free-wave floor constant delta_m (> 0, user-supplied; all bounds conditional on it)"),
}

_GRID_OPTS = {
    "dr": (float, 0.05, "radial step (length units)"),
    "r_max": (float, REQUIRED, "outer radius; must exceed t_max/cfl (causal closure); required"),
    "t_max": (float, REQUIRED, "maximal simulated time; required"),
    "cfl": (float, solver.GridSpec.cfl, "Courant ratio dt/dr in (0, 1]; validated against the n-dependent stability limit"),
    "u_threshold": (float, solver.GridSpec.u_threshold, "amplitude threshold declaring blow-up"),
}


def _add_opts(parser: argparse.ArgumentParser, opts: dict) -> None:
    for dest, (typ, default, help_text) in opts.items():
        flag = "--" + dest.replace("_", "-")
        if typ is bool:
            parser.add_argument(flag, dest=dest, action="store_true", default=None, help=help_text)
        else:
            shown = "" if default in (REQUIRED, None) else f" [default: {default}]"
            parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text + shown)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowuplab",
        description="Blow-up classification, lifespan bounds, and radial solver experiments "
        "for scale-invariant damped semilinear wave equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new_cmd(name: str, help_text: str, opts: dict, handler, with_out: bool = True, summary_file: str | None = None):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None, help="flat key=value config file; flags override it")
        if with_out:
            p.add_argument("--out", type=Path, default="out", help="output directory for artifacts [default: out]")
        _add_opts(p, opts)
        p.set_defaults(handler=handler, opts=opts, summary_file=summary_file)

    new_cmd("classify", "classify one (n, mu, nu, kbar, p) point", _POINT_OPTS, _cmd_classify, with_out=False)

    new_cmd("bound", "explicit lifespan upper bound (conditional on delta_m)", {**_MODEL_OPTS, **_BOUND_OPTS}, _cmd_bound, with_out=False)

    sim_opts = {
        **_MODEL_OPTS,
        **_GRID_OPTS,
        "form": (_choice("u", "v", "free", "both"), "u", "solution form: u, v, free, or both (runs u and v plus transform check)"),
        "snapshot_times": (_float_list, (), "comma-separated times for CSV profile snapshots"),
        "history": (bool, False, "include the full amplitude history in the summary JSON"),
    }
    new_cmd("simulate", "one solver run (+ optional transform check)", sim_opts, _cmd_simulate, summary_file="run_summary.json")

    sweep_opts = {
        **{k: v for k, v in _MODEL_OPTS.items() if k != "eps"},
        **_GRID_OPTS,
        "eps_values": (_float_list, REQUIRED, "comma-separated eps grid, strictly increasing, >= 4 values; required"),
        "refinement_levels": (int, experiments.SweepSpec.refinement_levels, "mesh refinement levels per eps (T_num from the finest)"),
        "form": (_choice("u", "v"), "u", "solution form for the runs: u or v"),
        "jobs": (int, None, "parallel lanes: this process plus jobs - 1 forked workers; 1 or less runs serially [default: usable CPU count]"),
        "check_bound": (bool, False, "also compare every T_num against the lifespan upper bound"),
        **_BOUND_OPTS,
    }
    new_cmd("sweep", "eps-sweep with lifespan power-law fit", sweep_opts, _cmd_sweep, summary_file="sweep_summary.json")

    atlas_opts = {
        "n": _MODEL_OPTS["n"],
        "mu": _MODEL_OPTS["mu"],
        "nu": _MODEL_OPTS["nu"],
        "kbar_min": (float, -0.5, "lower end of the kbar grid (> -1)"),
        "kbar_max": (float, 4.0, "upper end of the kbar grid"),
        "kbar_count": (int, 100, "number of kbar grid nodes"),
        "p_min": (float, 1.05, "lower end of the p grid (> 1)"),
        "p_max": (float, 3.5, "upper end of the p grid"),
        "p_count": (int, 100, "number of p grid nodes"),
        "format": (_choice("csv", "svg", "both"), "both", "artifacts to write: csv, svg, or both"),
    }
    new_cmd("atlas", "region diagram over a (kbar, p) grid", atlas_opts, _cmd_atlas)

    conv_opts = {
        **_MODEL_OPTS,
        **_GRID_OPTS,
        "levels": (int, 3, "number of refinement levels (>= 3)"),
        "compare_time": (float, None, "profile comparison time [default: t_max / 2]"),
        "form": (_choice("u", "v", "free"), "u", "solution form: u, v, or free"),
    }
    new_cmd("converge", "mesh refinement study (observed order)", conv_opts, _cmd_converge, summary_file="convergence.json")

    return parser


def _read_config(path: str, opts: dict) -> dict:
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in opts:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        typ = opts[key][0]
        try:
            values[key] = _bool(value) if typ is bool else typ(value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


def _merge(args: argparse.Namespace) -> dict:
    opts = args.opts
    merged = {dest: default for dest, (_, default, _) in opts.items()}
    if args.config:
        merged.update(_read_config(args.config, opts))
    for dest in opts:
        flag_value = getattr(args, dest, None)
        if flag_value is not None:
            merged[dest] = flag_value
    missing = [dest for dest, value in merged.items() if value is REQUIRED]
    if missing:
        raise ValueError("missing required option(s): " + ", ".join("--" + m.replace("_", "-") for m in sorted(missing)))
    merged["out"] = getattr(args, "out", None)  # None: the subcommand writes no files
    return merged


def _params(cfg: dict) -> exponents.ModelParams:
    """The model point of `cfg`; ModelParams supplies M and eps where the
    subcommand takes neither."""
    return exponents.ModelParams(**{k: cfg[k] for k in _MODEL_OPTS if k in cfg})


def _grid(cfg: dict) -> solver.GridSpec:
    return solver.GridSpec(**{k: cfg[k] for k in _GRID_OPTS})


def _json(payload: dict) -> str:
    # NaN and +-Infinity are not JSON: a non-finite number is written as null
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True) + "\n"


def _cmd_classify(cfg: dict) -> dict:
    return dataclasses.asdict(exponents.classify(_params(cfg)))


def _cmd_bound(cfg: dict) -> dict:
    bc = bound_engine.BoundConfig(params=_params(cfg), delta_m=cfg["delta_m"])
    return dataclasses.asdict(bound_engine.lifespan_upper_bound(bc))


def _run_payload(result: solver.SolverRun, with_history: bool) -> dict:
    payload = {
        "form": result.form.value,
        "params": dataclasses.asdict(result.params),
        "grid": dataclasses.asdict(result.grid),
        "outcome": result.outcome,
        "T_num": result.T_num,
        "t_end": result.t_end,
    }
    if with_history:
        payload["max_amplitude_history"] = [[t, a] for t, a in result.amplitude_history.tolist()]
    return payload


def _cmd_simulate(cfg: dict) -> dict:
    params = _params(cfg)
    grid = _grid(cfg)
    times = cfg["snapshot_times"]
    with_history = bool(cfg["history"])
    both = cfg["form"] == "both"
    forms = (solver.Form.U, solver.Form.V) if both else (solver.Form(cfg["form"]),)
    # in `both`, one run per form serves the check and the CSVs (requested snapshots only)
    run_times = solver.transform_times(grid, times) if both else times
    runs = [solver.run(form, params, grid, snapshot_times=run_times, collect_history=with_history) for form in forms]
    if both:
        cut_off = not times and not all(result.snapshots for result in runs)  # default times past a blow-up
        report = solver.TransformReport((), (), None) if cut_off else solver.compare_forms(*runs)
        payload = {result.form.value: _run_payload(result, with_history) for result in runs}
        payload["transform_check"] = dataclasses.asdict(report)
    else:
        payload = _run_payload(runs[0], with_history)
    payload["files"] = [f"snapshots_{form.value}.csv" for form in forms]
    for name, result in zip(payload["files"], runs):
        with open(cfg["out"] / name, "w", encoding="utf-8", newline="") as fh:
            fh.write("t,r,u\n")
            for snap in result.snapshots if times else []:
                for rv, uv in zip(snap.r, snap.u):
                    fh.write(f"{snap.t:.12g},{rv:.12g},{uv:.12g}\n")
    return payload


def _cmd_sweep(cfg: dict) -> dict:
    spec = experiments.SweepSpec(
        params_base=_params(cfg),
        eps_values=cfg["eps_values"],
        grid=_grid(cfg),
        refinement_levels=cfg["refinement_levels"],
        form=solver.Form(cfg["form"]),
    )
    bounds = None
    if cfg["check_bound"]:  # before any solve: a bound beyond the float range exits 2 with nothing run or written
        configs = [bound_engine.BoundConfig(dataclasses.replace(spec.params_base, eps=eps), delta_m=cfg["delta_m"]) for eps in spec.eps_values]
        bounds = {eps: bound_engine.lifespan_upper_bound(bc) for eps, bc in zip(spec.eps_values, configs)}
    result = experiments.sweep(spec, jobs=cfg["jobs"])

    with open(cfg["out"] / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("eps,T_num,refinement_agreement\n")
        for pt in result.points:
            t_field = "" if pt.T_num is None else f"{pt.T_num:.12g}"
            a_field = "" if pt.refinement_agreement is None else f"{pt.refinement_agreement:.12g}"
            fh.write(f"{pt.eps:.12g},{t_field},{a_field}\n")

    alpha = result.alpha_theory
    slope_ok = math.isfinite(result.slope) and abs(result.slope + alpha) / alpha <= 0.25
    fit_ok = not result.survived_eps and slope_ok and result.r_squared >= 0.95
    points = [[pt.eps, pt.T_num, pt.refinement_agreement] for pt in result.points]
    summary = {**dataclasses.asdict(result), "points": points, "pass": bool(fit_ok)}
    if bounds is not None:
        report = experiments.check_upper_bound(spec, result, bounds)
        rows = [[r.eps, r.T_num, r.T_upper, r.ok, r.vacuous] for r in report.rows]
        summary["bound_check"] = {**dataclasses.asdict(report), "rows": rows}
        (cfg["out"] / "bound_check.json").write_text(_json(summary["bound_check"]), encoding="utf-8")
    return summary


def _cmd_atlas(cfg: dict) -> dict:
    note = diagram.boundary_annotation(cfg["n"], cfg["mu"])  # raises for n + mu <= 1 or D beyond floats, before any classify
    result = exponents.atlas(
        n=cfg["n"],
        mu=cfg["mu"],
        nu=cfg["nu"],
        k_grid=(cfg["kbar_min"], cfg["kbar_max"], cfg["kbar_count"]),
        p_grid=(cfg["p_min"], cfg["p_max"], cfg["p_count"]),
    )
    files = []
    if cfg["format"] in ("csv", "both"):
        result.to_csv(cfg["out"] / "atlas.csv")
        files.append("atlas.csv")
    if cfg["format"] in ("svg", "both"):
        diagram.write_atlas_svg(result, cfg["out"] / "atlas.svg")
        files.append("atlas.svg")
    return {**note, "counts": result.verdict_counts(), "files": files}


def _cmd_converge(cfg: dict) -> dict:
    report = experiments.convergence_study(
        _params(cfg), _grid(cfg), levels=cfg["levels"], form=solver.Form(cfg["form"]), compare_time=cfg["compare_time"]
    )
    return dataclasses.asdict(report)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    made = []  # the directories made for --out, innermost first
    try:
        cfg = _merge(args)
        if cfg["out"] is not None:  # before the handler: an unwritable --out exits 3 with nothing computed
            made = [d for d in (cfg["out"], *cfg["out"].parents) if not d.exists()]
            cfg["out"].mkdir(parents=True, exist_ok=True)
        text = _json(args.handler(cfg))
        if args.summary_file is not None:  # the file holds exactly the bytes printed
            (cfg["out"] / args.summary_file).write_text(text, encoding="utf-8")
        print(text, end="")
        return 0
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = 3
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # internal assertion / unexpected state
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 4
    except KeyboardInterrupt:  # Ctrl-C: 128 + SIGINT, as a shell reports it
        print("interrupted", file=sys.stderr)
        code = 130
    for d in made:  # a failed or interrupted command leaves none of them behind empty
        try:
            d.rmdir()
        except OSError:  # it holds a file, or was never made
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
