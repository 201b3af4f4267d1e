#!/usr/bin/env python3
"""blowuplab benchmark.

    python3 perfbench/run.py --workload sweep_c7 --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): sweep_c7, atlas_bound, verify.

With --trace 0 the run repeats untraced passes of the workload for about
--seconds (at least three passes) and reports the end-to-end metrics; the
times are means over the passes (see README.md).  With --trace 1 it
alternates an untraced pass with a traced one (at least one pair) and
reports the per-layer metrics of the traced pass with the median wall time.

Every pass checks its outputs.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
is a JSON report with the counts, artefact hashes, failing operations and
run metadata.  Scratch output goes to .perfbench_work/ at the repo root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REQUIRED_FILES = (SRC / "blowuplab" / "__init__.py", ROOT / "tests" / "data" / "atlas_golden_n3_mu2.csv")

SETUP_REPEATS = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

PER_LAYER = {
    "solver.runs": "count",
    "solver.steps": "count",
    "solver.node_steps": "count",
    "solver.causal_node_steps": "count",
    "solver.useful_frac": "ratio",
    "solver.run_s": "s",
    "solver.ns_per_node_step": "ns",
    "solver.us_per_step": "us",
    "solver.exact_ref_s": "s",
    "solver.transform_check_s": "s",
    "solver.nscan_s": "s",
    "solver.spurious_blowups": "count",
    "experiments.sweep_s": "s",
    "experiments.pool_tasks": "count",
    "experiments.parallel_eff": "ratio",
    "experiments.check_upper_bound_s": "s",
    "experiments.convergence_study_s": "s",
    "experiments.fit_us": "us",
    "exponents.classify_calls": "count",
    "exponents.atlas_s": "s",
    "exponents.us_per_point": "us",
    "bound_engine.bound_calls": "count",
    "bound_engine.bound_s": "s",
    "bound_engine.bound_us_p50": "us",
    "bound_engine.bound_us_p99": "us",
    "bound_engine.bound_failed": "count",
    "bound_engine.oracle_calls": "count",
    "bound_engine.oracle_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "diagram.svg_s": "s",
    "diagram.svg_bytes": "bytes",
    "exponents.self_s": "s",
    "bound_engine.self_s": "s",
    "solver.self_s": "s",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "diagram.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _src_files() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def _metadata(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in _src_files()),
    }


def _code_hash() -> str:
    """Hash of the package and of the benchmark's own code."""
    h = hashlib.sha256()
    for p in _src_files() + sorted(HERE.glob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# -- set-up ----------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: import the package, build the inputs, warm up, and print
    the seconds that took."""
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    WORKLOADS[workload](seed).warm_up()
    print(time.perf_counter() - start)


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of setup_probe's time."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# -- passes ----------------------------------------------------------------


def run_pass(w, workdir: Path, traced: bool) -> dict:
    """One pass of workload `w` under a fresh tracer (spans on if traced)."""
    import tracing
    from workloads import Op

    out = workdir / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()  # every pass starts from the same collector state
    tracer = tracing.Tracer(workdir, spans=traced).install()
    raw: dict = {}
    error = None
    try:
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            raw.update(w.timed(out, tracer.phase))
        except Exception as exc:  # the pass goes on the record as a failed operation
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        if error is None:
            try:
                raw.update(w.untimed(out, tracer.phase))
            except Exception as exc:
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.uninstall()
    tracer.collect_workers()

    ops = [Op(f"{w.name}.pass", False, error)] if error else w.check(raw)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    # counts every run records, and the call counts only a traced pass has
    counts, call_counts = {}, {}
    for key, value in tracer.counts.items():
        fn, _, kind = key.rpartition(".")
        (call_counts if kind in ("calls", "failed") and fn not in tracing.COUNTED else counts)[key] = value
    counts["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    counts["diagram.svg_bytes"] = sum(p.stat().st_size for p in files if p.suffix == ".svg")
    if error is None:
        counts.update(w.counts(raw))
    return {
        "traced": traced,
        "wall": wall,
        "cpu": cpu,
        "ops": ops,
        "counts": counts,
        "call_counts": call_counts,
        "hashes": {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in w.artefacts if (out / name).is_file()},
        "worker_rss_kb": sum(tracer.worker_maxrss_kb.values()),
        "spans": tracer.spans,
        "info": w.info(raw) if error is None else {},
    }


def layer_metrics(p: dict, jobs: int, overhead: float) -> dict[str, float]:
    import tracing

    spans = p["spans"]
    counts = {**p["counts"], **p["call_counts"]}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names: str) -> float:
        return sum((s.duration for n in names for s in by_name.get(n, ())), 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    run_s = total("solver.run")
    steps, node_steps = counts.get("solver.steps", 0), counts.get("solver.node_steps", 0)
    sweep_s = total("experiments.sweep")
    sweep_ids = {s.id for s in by_name.get("experiments.sweep", ())}
    pool_runs = [s for s in by_name.get("solver.run", ()) if s.parent in sweep_ids]
    atlas_s = total("exponents.atlas")
    bounds = by_name.get("bound_engine.lifespan_upper_bound", [])
    bound_us = sorted(s.duration * 1e6 for s in bounds)
    selfs = tracing.self_times(spans)
    m = {
        "solver.runs": counts.get("solver.runs", 0),
        "solver.steps": steps,
        "solver.node_steps": node_steps,
        "solver.causal_node_steps": counts.get("solver.causal_node_steps", 0),
        "solver.useful_frac": ratio(counts.get("solver.causal_node_steps", 0), node_steps),
        "solver.run_s": run_s,
        "solver.ns_per_node_step": ratio(run_s * 1e9, node_steps),
        "solver.us_per_step": ratio(run_s * 1e6, steps),
        "solver.exact_ref_s": total("solver.exact_free_wave_n3"),
        "solver.transform_check_s": total("solver.transform_check"),
        "solver.nscan_s": total("bench.dimension_probe"),
        "solver.spurious_blowups": counts.get("probe.blowups", 0),
        "experiments.sweep_s": sweep_s,
        "experiments.pool_tasks": len(pool_runs),
        "experiments.parallel_eff": ratio(sum(s.duration for s in pool_runs), jobs * sweep_s),
        "experiments.check_upper_bound_s": total("experiments.check_upper_bound"),
        "experiments.convergence_study_s": total("experiments.convergence_study"),
        "experiments.fit_us": total("experiments.fit_power_law") * 1e6,
        "exponents.classify_calls": counts.get("exponents.classify.calls", 0),
        "exponents.atlas_s": atlas_s,
        "exponents.us_per_point": ratio(atlas_s * 1e6, counts.get("atlas.nodes_classified", 0)),
        "bound_engine.bound_calls": counts.get("bound_engine.lifespan_upper_bound.calls", 0),
        "bound_engine.bound_s": sum(s.duration for s in bounds),
        "bound_engine.bound_us_p50": tracing.percentile(bound_us, 50),
        "bound_engine.bound_us_p99": tracing.percentile(bound_us, 99),
        "bound_engine.bound_failed": counts.get("bound_engine.lifespan_upper_bound.failed", 0),
        "bound_engine.oracle_calls": len(by_name.get("bound_engine.free_lower_bound", ())) + len(by_name.get("bound_engine.verify_iteration_step", ())),
        "bound_engine.oracle_s": total("bound_engine.free_lower_bound", "bound_engine.verify_iteration_step"),
        "cli.write_s": total("exponents.AtlasResult.to_csv"),
        "cli.bytes_written": counts["cli.bytes_written"],
        "diagram.svg_s": total("diagram.write_atlas_svg"),
        "diagram.svg_bytes": counts["diagram.svg_bytes"],
        "trace.overhead_s": overhead,
        "trace.spans": len(spans),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum((selfs[s.id] for s in spans if s.layer == layer), 0.0)
    return m


# -- consistency -----------------------------------------------------------


def consistency_flags(w, passes: list[dict], seed: int) -> list[str]:
    """Exact counts and artefact hashes must repeat across the passes of this
    run, and across runs of the same code, workload and seed."""
    flags = []
    ref = passes[0]
    for i, p in enumerate(passes[1:], 1):
        if p["hashes"] != ref["hashes"]:
            flags.append(f"artefact hashes of pass {i} ({'traced' if p['traced'] else 'plain'}) differ from pass 0")
        if p["counts"] != ref["counts"]:
            flags.append(f"exact counts of pass {i} differ from pass 0: {p['counts']} != {ref['counts']}")
    failed_names = [sorted(op.name for op in p["ops"] if not op.ok) for p in passes]
    if any(names != failed_names[0] for names in failed_names):
        flags.append("the failing operations differ between the passes")
    traced_calls = [p["call_counts"] for p in passes if p["traced"]]
    if any(calls != traced_calls[0] for calls in traced_calls):
        flags.append("call counts differ between the traced passes")

    store_path = WORK / "counts_store.json"
    store = json.loads(store_path.read_text(encoding="utf-8")) if store_path.is_file() else {}
    key = f"{w.name}:{seed}:{_code_hash()}"
    record = {"counts": ref["counts"], "hashes": ref["hashes"]}
    if key in store and store[key] != record:
        flags.append(f"exact counts or artefact hashes differ from an earlier run of the same code and seed: {store[key]} != {record}")
    store[key] = record
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store_path)
    return flags


def failure_summary(failures) -> dict:
    groups: dict[str, list[str]] = {}
    for op in failures:
        groups.setdefault(op.defect or "unexpected", []).append(f"{op.name}: {op.reason}")
    return {k: {"count": len(v), "first": v[:5]} for k, v in sorted(groups.items())}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED_FILES if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a blowuplab checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = measure_setup(args.workload, args.seed)
    w = WORKLOADS[args.workload](args.seed)
    w.warm_up()
    workdir = WORK / w.name
    workdir.mkdir(parents=True, exist_ok=True)

    # One unit is a plain pass, or a plain and a traced pass.  A new unit
    # starts only if it should end less than half a unit after --seconds.
    modes = (False, True) if args.trace else (False,)
    min_units = 1 if args.trace else MIN_PASSES
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        passes.extend(run_pass(w, workdir, traced) for traced in modes)
        units = len(passes) // len(modes)
        if units >= min_units and (time.perf_counter() - start) * (1.0 + 0.5 / units) >= args.seconds:
            break
    main_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Every pass repeats the same operations, so an operation is attempted
    # once per run and fails if it failed in any pass; how many passes fit
    # in --seconds does not change the counts.
    ops: dict[str, object] = {}
    for p in passes:
        for op in p["ops"]:
            if op.name not in ops or not op.ok:
                ops[op.name] = op
    attempted = len(ops)
    failures = [op for op in ops.values() if not op.ok]
    failed = len(failures)
    unexpected = [op for op in failures if op.defect is None]
    flags = consistency_flags(w, passes, args.seed)
    plain = [p for p in passes if not p["traced"]]
    traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["wall"])

    if args.trace:
        overhead = statistics.median(p["wall"] for p in traced) - statistics.median(p["wall"] for p in plain)
        chosen = traced[(len(traced) - 1) // 2]
        metrics = layer_metrics(chosen, getattr(w, "jobs", 1), overhead)
        unit_of = PER_LAYER
        (workdir / "spans.json").write_text(json.dumps([s.__dict__ for s in chosen["spans"]]), encoding="utf-8")
    else:
        metrics = {
            "setup_s": setup_s,
            # Means, not medians: the host's speed shifts between a fast and
            # a slow state for tens of seconds at a time, and a median over
            # the passes jumps with whichever state held longer in the run.
            "wall_s": statistics.fmean(p["wall"] for p in plain),
            "cpu_s": statistics.fmean(p["cpu"] for p in plain),
            "peak_rss_mb": (main_rss_kb + max(p["worker_rss_kb"] for p in plain)) / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        unit_of = END_TO_END

    summaries = failure_summary(failures)
    for group, summary in summaries.items():
        print(f"perfbench: {summary['count']} failed operations ({group}), e.g. {summary['first'][0]}", file=sys.stderr)
    for flag in flags:
        print(f"perfbench: FLAG {flag}", file=sys.stderr)
    report = {
        "workload": w.name,
        "passes": [{"traced": p["traced"], "wall_s": p["wall"], "cpu_s": p["cpu"]} for p in passes],
        "failed_frac": failed / attempted,
        "counts": passes[0]["counts"],
        "artefact_sha256": passes[0]["hashes"],
        "failures": summaries,
        "flags": flags,
        "info": passes[0]["info"],
        "metadata": _metadata(args.seed),
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    print(json.dumps({"report": report}, default=str))
    print(
        json.dumps(
            {
                "correct": not unexpected and not flags,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in unit_of.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
