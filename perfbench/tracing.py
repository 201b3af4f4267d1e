"""Spans and exact counts recorded from outside the package.

`Tracer.install` rebinds the public functions of the six blowuplab modules
(in every blowuplab module that imported them by name) to wrappers, and
`Tracer.uninstall` puts the originals back.  Nothing under `src/` is
edited.

Two modes:

* counting (`spans=False`): only the functions in `COUNTED` are wrapped,
  counting calls and raised exceptions.  After each `solver.run` the
  wrapper also adds the run's exact work (steps, nominal node-steps, causal
  node-steps) derived from the returned `SolverRun`.  This is what the
  untraced runs that give the end-to-end metrics pay: about 1 % of
  atlas_bound's wall time (210 000 classify calls per pass) and nothing measurable
  elsewhere.
* tracing (`spans=True`): every public function is wrapped and counts its
  calls; the functions in `SPANNED` (the operations a user or another layer
  asks a layer for) also record a span (id, name, start, end, parent, pid).
  Hot inner helpers such as `classify` or `step` are only counted, so the
  span list stays small.

Sweep workers are forked from the benchmark process, so they inherit the
wrappers.  A worker appends its spans and counts to
`<workdir>/workers/<pid>.jsonl` each time it finishes a top-level call;
`collect_workers` merges those files after the pool has shut down.
`time.perf_counter` is CLOCK_MONOTONIC on Linux, so worker spans share the
parent's time base and nest under the `experiments.sweep` span that was
open when the pool forked.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import resource
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

LAYERS = ("exponents", "bound_engine", "solver", "experiments", "cli", "diagram")

COUNTED = frozenset({"solver.run", "exponents.classify", "bound_engine.lifespan_upper_bound"})

SPANNED = frozenset(
    {
        "cli.main",
        "experiments.sweep",
        "experiments.check_upper_bound",
        "experiments.convergence_study",
        "experiments.fit_power_law",
        "solver.run",
        "solver.transform_check",
        "solver.exact_free_wave_n3",
        "exponents.atlas",
        "exponents.AtlasResult.to_csv",
        "bound_engine.lifespan_upper_bound",
        "bound_engine.free_lower_bound",
        "bound_engine.verify_iteration_step",
        "diagram.write_atlas_svg",
    }
)


@dataclass(frozen=True)
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    pid: int
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def run_work_counts(result) -> dict[str, int]:
    """Exact work of one `solver.run`: the number of leapfrog steps, the
    nominal node-steps (n_nodes per step) and the causal node-steps (the
    sum over steps of `causal_node_count`, i.e. max(1, N - j) at level j).

    The run starts at level 1 (t = dt) and ends at level J = t_end/dt, so
    it takes J - 1 steps, to levels 2..J."""
    grid = result.grid
    n = grid.n_nodes
    last = int(round(result.t_end / grid.dt))
    steps = max(0, last - 1)
    inner = max(0, min(last, n - 1) - 1)  # levels 2 .. 1 + inner have n - j >= 1
    causal = inner * n - inner * (inner + 3) // 2 + max(0, last - (n - 1))
    return {"solver.runs": 1, "solver.steps": steps, "solver.node_steps": steps * n, "solver.causal_node_steps": causal}


_ACTIVE: "Tracer | None" = None


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._enter_worker()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Tracer:
    def __init__(self, workdir: Path, spans: bool):
        self.spans_on = spans
        self.worker_dir = Path(workdir) / "workers"
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.worker_maxrss_kb: dict[int, int] = {}
        self._stack: list[str] = []
        self._seq = 0
        self._worker = False
        self._fork_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is installed")
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.worker_dir.glob("*.jsonl"):
            stale.unlink()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"blowuplab.{layer}")
            names = getattr(mod, "__all__", ["main"])
            for name in names:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                if self.spans_on or qual in COUNTED:
                    wrappers[fn] = self._wrap(qual, fn)
        if self.spans_on:
            atlas_result = importlib.import_module("blowuplab.exponents").AtlasResult
            self._set(atlas_result, "to_csv", self._wrap("exponents.AtlasResult.to_csv", atlas_result.to_csv))
        for modname, mod in list(sys.modules.items()):
            if modname != "blowuplab" and not modname.startswith("blowuplab."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        _ACTIVE = None

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, qual: str, fn):
        spanned = self.spans_on and qual in SPANNED
        is_run = qual == "solver.run"
        calls_key, failed_key = qual + ".calls", qual + ".failed"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[calls_key] += 1
            try:
                if spanned:
                    with tracer.span(qual):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
                if is_run:
                    tracer.counts.update(run_work_counts(result))
                return result
            except BaseException:
                tracer.counts[failed_key] += 1
                raise
            finally:
                if tracer._worker:
                    tracer._maybe_flush()

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body (tracing mode only)."""
        if not self.spans_on:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self._seq += 1
        sid = f"{os.getpid()}-{self._seq}"
        self._stack.append(sid)
        error = None
        start = perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, os.getpid(), error))

    def phase(self, name: str):
        """Span of one phase of a workload pass, `bench.<name>`."""
        return self.span("bench." + name)

    # -- pool workers -----------------------------------------------------

    def _enter_worker(self) -> None:
        self._worker = True
        self._fork_depth = len(self._stack)
        self.spans = []
        self.counts = Counter()

    def _maybe_flush(self) -> None:
        if not self._worker or len(self._stack) != self._fork_depth:
            return
        record = {
            "pid": os.getpid(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "counts": dict(self.counts),
            "spans": [[s.id, s.name, s.start, s.end, s.parent, s.pid, s.error] for s in self.spans],
        }
        with open(self.worker_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = Counter()

    def collect_workers(self) -> None:
        """Merge and remove the records that pool workers wrote."""
        for path in sorted(self.worker_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                self.counts.update(record["counts"])
                self.spans.extend(Span(*fields) for fields in record["spans"])
                pid = record["pid"]
                self.worker_maxrss_kb[pid] = max(self.worker_maxrss_kb.get(pid, 0), record["maxrss_kb"])
            path.unlink()


# -- span analysis ---------------------------------------------------------


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[str, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
