"""SVG emission for the (kbar, p) region diagram.

Layout follows the usual convention for these diagrams: blow-up shaded
below the critical curve, known existence above, the heat-type curve
p = p_F(kbar + mu/2) and the straight existence boundary drawn on top,
and the intersection (kbar0, p_S(n + mu)) annotated.  When the shifted
dimension n + mu is an integer the annotation carries the exact
quadratic-surd value, e.g. (3+v17)/4 rendered with a real radical sign.
The file is streamed one kbar column at a time, never held whole.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from .exponents import AtlasResult, Verdict, _existence_power, _open_text, _shifted_decay, fujita, kbar_zero, strauss

__all__ = ["exact_boundary_labels", "boundary_annotation", "write_atlas_svg"]


def _squarefree(D: int) -> tuple[int, int] | None:
    """(s, q) with D = s^2 q and q squarefree, or None if that needs a trial divisor above 10^5."""
    s, rest, f = 1, D, 2  # rest: D without its prime factors below f
    while f * f <= rest:
        if f > 10**5:
            return None
        while rest % f == 0:
            rest //= f
            if rest % f == 0:
                rest //= f
                s *= f
        f += 1
    return s, D // (s * s)


def _format_surd(x: Fraction, y: Fraction, q: int) -> str:
    """Render x + y*sqrt(q) as (A + B*sqrt(q))/C in lowest terms with C > 0,
    or as the fraction x + y when q = 1."""
    if q == 1:
        return str(x + y)
    C = math.lcm(x.denominator, y.denominator)
    A, B = int(x * C), int(y * C)
    root = f"√{q}" if abs(B) == 1 else f"{abs(B)}√{q}"
    if A == 0:
        num = root if B > 0 else f"-{root}"
    else:
        num = f"{A}{'+' if B > 0 else '-'}{root}"
    return num if C == 1 else f"({num})/{C}"


def exact_boundary_labels(n: int, mu: float) -> tuple[str | None, str | None]:
    """Exact-form strings (kbar0, p_S(n+mu)) when n + mu is an integer and
    the squarefree part of D below is found, else (None, None).

    With d = n + mu and D = (d+1)^2 + 8(d-1) = s^2 q, q squarefree,
    p_S(d) = ((d+1) + sqrt(D)) / (2(d-1)), and the identity D - d^2 = 10d - 7
    gives kbar0 = 2/(p_S - 1) - mu/2 = (sqrt(D) + n - mu - 3)/4: both are
    affine in s sqrt(q) with rational coefficients (q = 1 only at d = 4).
    """
    if not float(mu).is_integer():
        return None, None
    d = n + int(mu)
    if d <= 1 or (split := _squarefree((d + 1) ** 2 + 8 * (d - 1))) is None:
        return None, None
    s, q = split
    kbar0 = _format_surd(Fraction(n - int(mu) - 3, 4), Fraction(s, 4), q)
    return kbar0, _format_surd(Fraction(d + 1, 2 * (d - 1)), Fraction(s, 2 * (d - 1)), q)


def boundary_annotation(n: int, mu: float) -> dict:
    """The atlas annotation: (kbar0, p_S(n + mu)) and their exact labels; raises for n + mu <= 1."""
    kb_label, ps_label = exact_boundary_labels(n, mu)
    return {"kbar0": kbar_zero(n, mu), "kbar0_exact": kb_label, "p_strauss": strauss(n + mu), "p_strauss_exact": ps_label}


_FILL = {
    Verdict.BLOW_UP.value: "#e4584f",
    Verdict.GLOBAL_EXISTENCE.value: "#5470d6",
}


def write_atlas_svg(result: AtlasResult, target) -> None:
    """Write the region diagram as a standalone 720 x 540 SVG file (no
    timestamps: repeated emission is byte-identical)."""
    note = boundary_annotation(result.n, result.mu)  # raises for n + mu <= 1, before any file is opened
    with _open_text(target) as fh:
        fh.writelines(_render(result, note))


def _render(res: AtlasResult, note: dict) -> Iterator[str]:
    """Yield the SVG: the header, one chunk per kbar column, then the rest."""
    W, H, ML, MR, MT, MB = 720, 540, 84, 26, 28, 58
    pw, ph = W - ML - MR, H - MT - MB
    kbar0, p_strauss = note["kbar0"], note["p_strauss"]
    ks, ps = res.kbar_values, res.p_values
    k_lo, k_hi = float(ks.min()), float(ks.max())
    p_lo, p_hi = float(ps.min()), float(ps.max())

    def X(k: float) -> float:
        return ML + (k - k_lo) / (k_hi - k_lo) * pw if k_hi > k_lo else ML + pw / 2

    def Y(p: float) -> float:
        return MT + (p_hi - p) / (p_hi - p_lo) * ph if p_hi > p_lo else MT + ph / 2

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">'
    )
    out.append(f'<rect x="0" y="0" width="{W}" height="{H}" fill="white"/>')
    out.append('<g opacity="0.55">')
    yield "\n".join(out) + "\n"

    # verdict cells (edges at midpoints between neighbouring grid values),
    # built from the strings of their row (y, height) and column (x, width)
    xs, ys = [X(k) for k in _edges(ks)], [Y(p) for p in _edges(ps)]
    rows = [(f"{y0:.2f}", f"{y1 - y0:.2f}") for y1, y0 in zip(ys, ys[1:])]
    for x0, x1, column in zip(xs, xs[1:], res.verdicts):
        x, w = f"{x0:.2f}", f"{x1 - x0:.2f}"
        yield "".join(
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}"/>\n'
            for (y, h), fill in zip(rows, map(_FILL.get, column))
            if fill is not None
        )

    out = ["</g>"]

    # boundary curves
    fujita_curve, existence_line = _boundary_curves(res.n, res.mu, k_lo, k_hi)
    out.append(_polyline(fujita_curve, X, Y, p_lo, p_hi, "#15257d", 2.0))
    out.append(_polyline(existence_line, X, Y, p_lo, p_hi, "#15257d", 1.4, dash="6 4"))
    if p_lo <= p_strauss <= p_hi:
        y = Y(p_strauss)
        out.append(
            f'<line x1="{ML}" y1="{y:.2f}" x2="{ML + pw}" y2="{y:.2f}" '
            f'stroke="#b1221c" stroke-width="1.4"/>'
        )

    # intersection marker, guides, annotations
    if k_lo <= kbar0 <= k_hi and p_lo <= p_strauss <= p_hi:
        cx, cy = X(kbar0), Y(p_strauss)
        out.append(
            f'<line x1="{cx:.2f}" y1="{cy:.2f}" x2="{cx:.2f}" y2="{MT + ph}" '
            f'stroke="#555" stroke-width="1" stroke-dasharray="2 3"/>'
        )
        out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="#15257d"/>')
    for y, name, key in ((MT + 18, "k̄0", "kbar0"), (MT + 36, "p_S", "p_strauss")):
        exact = note[key + "_exact"]
        text = f"{name} = {note[key]:.6f}" if exact is None else f"{name} = {exact} ≈ {note[key]:.6f}"
        out.append(f'<text x="{ML + 10}" y="{y}" font-size="14" font-family="sans-serif">{text}</text>')

    # axes and labels
    out.append(
        f'<rect x="{ML}" y="{MT}" width="{pw}" height="{ph}" fill="none" stroke="black" stroke-width="1.2"/>'
    )
    out.append(
        f'<text x="{ML + pw + 4}" y="{MT + ph + 18}" font-size="16" font-style="italic" '
        f'font-family="serif">k̄</text>'
    )
    out.append(
        f'<text x="{ML - 26}" y="{MT - 8}" font-size="16" font-style="italic" font-family="serif">p</text>'
    )
    for k in (k_lo, k_hi):
        out.append(
            f'<text x="{X(k):.2f}" y="{MT + ph + 18}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{k:.3g}</text>'
        )
    for p in (p_lo, p_hi):
        out.append(
            f'<text x="{ML - 8}" y="{Y(p) + 4:.2f}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{p:.3g}</text>'
        )
    legend = [
        (Verdict.BLOW_UP.value, "blow-up (lifespan bound applies)"),
        (Verdict.GLOBAL_EXISTENCE.value, "global existence (encoded results)"),
    ]
    lx = ML + 10
    ly = MT + ph - 16 - 18 * (len(legend) - 1)
    for name, desc in legend:
        out.append(f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{_FILL[name]}" opacity="0.55"/>')
        out.append(
            f'<text x="{lx + 18}" y="{ly}" font-size="12" font-family="sans-serif">{desc}</text>'
        )
        ly += 18
    out.append("</svg>")
    yield "\n".join(out) + "\n"


def _edges(values: np.ndarray) -> np.ndarray:
    if values.size == 1:
        half = 0.5 if values[0] == 0 else abs(values[0]) * 0.05 + 0.05
        return np.array([values[0] - half, values[0] + half])
    mids = 0.5 * (values[:-1] + values[1:])
    first = values[0] - (mids[0] - values[0])
    last = values[-1] + (values[-1] - mids[-1])
    return np.concatenate([[first], mids, [last]])


_CURVE_SAMPLES = 512  # points per boundary curve


def _boundary_curves(n: int, mu: float, k_lo: float, k_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """(kbar, p) samples of p = p_F(kbar + mu/2) and of the straight
    existence boundary p = (2 kbar + mu + 2)/(n + mu - 1) over [k_lo, k_hi];
    they meet at (kbar0, p_S(n + mu))."""
    # Fujita curve only exists where kbar + mu/2 > 0.
    curve_lo = max(k_lo, -mu / 2.0 + 1e-9 * max(1.0, abs(mu / 2.0)))
    if curve_lo < k_hi:
        ks = np.linspace(curve_lo, k_hi, _CURVE_SAMPLES)
        fujita_curve = np.column_stack([ks, [fujita(h) for h in _shifted_decay(ks, mu)]])
    else:
        fujita_curve = np.empty((0, 2))
    ks = np.linspace(k_lo, k_hi, _CURVE_SAMPLES)
    return fujita_curve, np.column_stack([ks, _existence_power(n, mu, ks)])


def _polyline(curve: np.ndarray, X, Y, p_lo: float, p_hi: float, color: str, width: float, dash: str | None = None) -> str:
    pts = [(X(k), Y(p)) for k, p in curve if p_lo <= p <= p_hi]
    if len(pts) < 2:
        return ""
    path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="{width}"{dash_attr}/>'
