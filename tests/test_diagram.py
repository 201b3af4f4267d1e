"""The streamed atlas writers against per-cell reference writers.

`write_atlas_svg` and `AtlasResult.to_csv` format each grid value once
and write one chunk per kbar column.  The references below keep the plain
per-cell loops they replaced; the output must match them byte for byte.
"""

import dataclasses
import io
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from blowuplab.diagram import _FILL, _edges, exact_boundary_labels, write_atlas_svg
from blowuplab.exponents import atlas, strauss

CELLS_OPEN = '<g opacity="0.55">\n'
CELLS_CLOSE = "</g>\n"


def reference_csv(res) -> str:
    """One f-string per cell, every value formatted at every cell."""
    out = io.StringIO()
    out.write("kbar,p,verdict,alpha\n")
    for i, k in enumerate(res.kbar_values):
        for j, p in enumerate(res.p_values):
            a = res.alphas[i, j]
            alpha_field = f"{a:.12g}" if math.isfinite(a) else ""
            out.write(f"{k:.12g},{p:.12g},{res.verdicts[i, j]},{alpha_field}\n")
    return out.getvalue()


def reference_cells(res) -> str:
    """The verdict rectangles, one f-string per cell, as the SVG writer
    drew them before it streamed."""
    W, H, ML, MR, MT, MB = 720, 540, 84, 26, 28, 58
    pw, ph = W - ML - MR, H - MT - MB
    ks, ps = res.kbar_values, res.p_values
    k_lo, k_hi = float(ks.min()), float(ks.max())
    p_lo, p_hi = float(ps.min()), float(ps.max())

    def X(k):
        return ML + (k - k_lo) / (k_hi - k_lo) * pw if k_hi > k_lo else ML + pw / 2

    def Y(p):
        return MT + (p_hi - p) / (p_hi - p_lo) * ph if p_hi > p_lo else MT + ph / 2

    k_edges, p_edges = _edges(ks), _edges(ps)
    out = []
    for i in range(ks.size):
        x0, x1 = X(k_edges[i]), X(k_edges[i + 1])
        for j in range(ps.size):
            fill = _FILL.get(res.verdicts[i, j])
            if fill is None:
                continue
            y1, y0 = Y(p_edges[j]), Y(p_edges[j + 1])
            out.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                f'height="{y1 - y0:.2f}" fill="{fill}"/>\n'
            )
    return "".join(out)


def reference_svg(res) -> str:
    """The document around the cells comes from an all-Unknown copy of the
    atlas, which draws no cell; the reference cells go between its markers."""
    blank = dataclasses.replace(res, verdicts=np.full(res.verdicts.shape, "Unknown", dtype=object))
    buf = io.StringIO()
    write_atlas_svg(blank, buf)
    head, sep, rest = buf.getvalue().partition(CELLS_OPEN)
    assert sep and rest.startswith(CELLS_CLOSE)
    return head + CELLS_OPEN + reference_cells(res) + rest


def assert_same_text(got: str, want: str) -> None:
    """Equality with the first differing line as the message (pytest's own
    diff of two large strings takes minutes)."""
    if got == want:
        return
    lines = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
    n, pair = next(((n, pair) for n, pair in enumerate(lines, 1) if pair[0] != pair[1]), (None, None))
    raise AssertionError(f"texts differ (lengths {len(got)}, {len(want)}); first differing line {n}: {pair}")


CASES = [
    pytest.param((3, 2.0, 0.0, (-0.5, 4.0, 120), (1.05, 3.5, 90)), id="n3-mu2-120x90"),
    pytest.param((2, 2.5, 0.5625, (-0.5, 4.0, 40), (1.05, 3.5, 30)), id="n2-mu2.5-no-exact-labels"),
    pytest.param((3, 2.0, 0.0, [1.0], [1.6]), id="single-node"),
    pytest.param((3, 2.0, 0.0, (-0.5, 4.0, 50), (2.5, 3.5, 40)), id="p-range-without-pS"),
    pytest.param((3, 0.0, 0.0, (-0.9, 2.0, 40), (1.05, 5.0, 30)), id="unknown-columns"),
]


@pytest.mark.parametrize("args", CASES)
def test_writers_match_per_cell_reference(args, tmp_path):
    res = atlas(*args)
    svg, csv = io.StringIO(), io.StringIO()
    write_atlas_svg(res, svg)
    res.to_csv(csv)
    assert_same_text(svg.getvalue(), reference_svg(res))
    assert_same_text(csv.getvalue(), reference_csv(res))

    write_atlas_svg(res, tmp_path / "atlas.svg")
    res.to_csv(tmp_path / "atlas.csv")
    assert_same_text((tmp_path / "atlas.svg").read_bytes().decode("utf-8"), svg.getvalue())
    assert_same_text((tmp_path / "atlas.csv").read_bytes().decode("utf-8"), csv.getvalue())


def test_cases_cover_the_edge_shapes():
    # the parametrised atlases above are meant to hit these shapes
    no_labels = atlas(*CASES[1].values[0])
    assert "√" not in reference_svg(no_labels)
    no_ps = atlas(*CASES[3].values[0])
    assert not no_ps.p_values.min() <= strauss(no_ps.n + no_ps.mu) <= no_ps.p_values.max()
    mixed = atlas(*CASES[4].values[0])
    drawn = [any(v in _FILL for v in column) for column in mixed.verdicts]
    assert any(drawn) and not all(drawn)


def test_svg_without_p_strauss_creates_no_file(tmp_path):
    # n + mu <= 1 has no p_S to draw: the writer raises before it opens the file
    res = atlas(2, -1.5, 0.0, (-0.5, 1.0, 3), (1.5, 2.0, 3))
    with pytest.raises(ValueError, match=r"n \+ mu > 1"):
        write_atlas_svg(res, tmp_path / "atlas.svg")
    assert not (tmp_path / "atlas.svg").exists()


def test_writers_stream_one_column_at_a_time(tmp_path):
    """Writing to a file must not hold the document in memory: the traced
    peak stays below a quarter of each file's size (one column of cells is
    about 1/200 of it)."""
    res = atlas(3, 2.0, 0.0, (-0.5, 4.0, 200), (1.05, 3.5, 200))
    for name, write in (("atlas.svg", lambda path: write_atlas_svg(res, path)), ("atlas.csv", res.to_csv)):
        path = tmp_path / name
        tracemalloc.start()
        try:
            write(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < size / 4, f"{name}: traced peak {peak} B for a {size} B file"


@pytest.mark.parametrize(
    "n, mu, labels",
    [
        # p_S(d) = ((d+1) + sqrt(d^2 + 10 d - 7))/(2(d-1)), kbar0 = 2/(p_S - 1) - mu/2
        (3, 2.0, ("(-1+√17)/2", "(3+√17)/4")),  # d = 5: sqrt(68) = 2 sqrt(17)
        # d = 4 is the one rational case: sqrt(49) = 7, p_S = 12/6 = 2, kbar0 = 2 - mu/2
        (3, 1.0, ("3/2", "2")),
        (2, 2.0, ("1", "2")),
        (5, -1.0, ("5/2", "2")),
        # d = 3: p_S = (4 + 4 sqrt(2))/4 = 1 + sqrt(2), kbar0 = 2/sqrt(2) - 1/2
        (2, 1.0, ("(-1+2√2)/2", "1+√2")),
        # d = 35: sqrt(1568) = 28 sqrt(2), p_S = (36 + 28 sqrt(2))/68,
        # 2/(p_S - 1) = 34/(-8 + 7 sqrt(2)) = 8 + 7 sqrt(2), kbar0 = that - 16
        (3, 32.0, ("-8+7√2", "(9+7√2)/17")),
        (3, 2.5, (None, None)),  # n + mu not an integer
        (2, -1.0, (None, None)),  # d = 1: no p_S
    ],
)
def test_exact_boundary_labels(n, mu, labels):
    assert exact_boundary_labels(n, mu) == labels


def _surd_parts(label: str) -> tuple[int, int, int, int]:
    """(A, B, q, C) of a label (A + B√q)/C; a fraction A/C has B = 0, q = 1."""
    if "√" not in label:
        x = Fraction(label)
        return x.numerator, 0, 1, x.denominator
    num, C = label[1:].split(")/") if label.startswith("(") else (label, "1")
    A, sign, B, q = re.fullmatch(r"(-?\d+(?=[+-]))?([+-]?)(\d*)√(\d+)", num).groups()
    return int(A or 0), (-1 if sign == "-" else 1) * int(B or 1), int(q), int(C)


def test_exact_boundary_labels_up_to_d_1e4():
    # every d = n + mu <= 10^4: the radicand is the squarefree part of D, each
    # label is in lowest terms, and its value is p_S(d) and kbar0 to 40 digits
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for d in range(2, 10**4 + 1):
            D = (d + 1) ** 2 + 8 * (d - 1)
            p_s = ((d + 1) + mpmath.sqrt(D)) / (2 * (d - 1))
            want = (2 / (p_s - 1) - mpmath.mpf(d - 2) / 2, p_s)
            for label, value in zip(exact_boundary_labels(2, float(d - 2)), want):
                A, B, q, C = _surd_parts(label)
                assert set(sympy.factorint(q).values()) <= {1}, label
                assert math.isqrt(D // q) ** 2 * q == D, label
                assert math.gcd(A, B, C) == 1 and C > 0, label
                assert abs((A + B * mpmath.sqrt(q)) / C - value) <= mpmath.mpf(10) ** -30 * abs(value), label


# float mu >= 2^53 is an integer: D ~ mu^2 has no squarefree part that trial
# division up to sqrt(D) finds in time, so labels are given only where a
# bounded search proves the radicand squarefree, and any label given is exact
@pytest.mark.parametrize("mu", [1e6, 1e9, 1e12, 2.0**60, 1e100, 1e308])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_boundary_labels_bounded_at_large_mu(n, mu):
    mpmath = pytest.importorskip("mpmath")
    start = time.perf_counter()
    labels = exact_boundary_labels(n, mu)
    assert time.perf_counter() - start < 1.0
    d = n + int(mu)
    D = (d + 1) ** 2 + 8 * (d - 1)
    with mpmath.workdps(2 * len(str(d)) + 40):
        p_s = ((d + 1) + mpmath.sqrt(D)) / (2 * (d - 1))
        want = (2 / (p_s - 1) - mpmath.mpf(int(mu)) / 2, p_s)
        for label, value in zip(labels, want):
            if label is not None:
                A, B, q, C = _surd_parts(label)
                assert math.isqrt(D // q) ** 2 * q == D, label
                assert abs((A + B * mpmath.sqrt(q)) / C - value) <= mpmath.mpf(10) ** -30 * abs(value), label
