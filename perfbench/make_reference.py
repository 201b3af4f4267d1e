"""Regenerate perfbench/reference.json from the current package.

    python3 perfbench/make_reference.py

The reference holds the 400x400 atlas verdict counts and the criterion-7
T_num for every eps the sweep_c7 workload can draw.  The benchmark checks
the counts and reports the largest relative T_num change against it.
Regenerate it only for a change that moves these numbers on purpose, and
say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from blowuplab import experiments, exponents, solver  # noqa: E402
from workloads import SweepC7  # noqa: E402


def main() -> None:
    counts = exponents.atlas(3, 2.0, 0.0, (-0.5, 4.0, 400), (1.05, 3.5, 400)).verdict_counts()

    eps = sorted({float(e * (1.0 + d)) for e in np.geomspace(2.0, 10.0, 5) for d in SweepC7.jitter if 2.0 <= e * (1.0 + d) <= 10.0})
    base = exponents.ModelParams(n=3, mu=2.0, nu=0.0, p=1.8, kbar=0.5, M=0.02, eps=eps[0])
    spec = experiments.SweepSpec(
        params_base=base,
        eps_values=tuple(eps),
        grid=solver.GridSpec(dr=0.05, r_max=500.0, t_max=230.0),
        refinement_levels=2,
    )
    result = experiments.sweep(spec, jobs=2)
    t_num = {repr(pt.eps): pt.T_num for pt in result.points}

    out = {"atlas400_counts": counts, "sweep_c7_T_num": t_num}
    (HERE / "reference.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
