"""Minimal deterministic SVG plotting: line series, quantile bands, box summaries.

Output is plain SVG with a fixed viewport and fixed-precision path data, so a
re-render from identical inputs is byte-identical.  Every label, title and
axis text is XML-escaped once, where it is written (``&``, ``<`` and ``>``).
No plotting library is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 44

PALETTE = ("#1f6fb2", "#d1495b", "#3a7d44", "#8a5fbf", "#c8791b", "#4a4a4a")


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _escape(text: str) -> str:
    """``text`` with XML's markup characters as entities.  Written here, since
    importing ``xml.sax.saxutils`` loads ``urllib.request`` (about 7 MB)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass
class LinePlot:
    """Accumulates series/bands, then renders one SVG file."""

    title: str = ""
    x_label: str = ""
    y_label: str = ""
    log_y: bool = False
    series: list = field(default_factory=list)   # (label, xs, ys)
    bands: list = field(default_factory=list)    # (label, xs, lo, hi)

    def add_series(self, label: str, xs, ys) -> None:
        self.series.append((label, np.asarray(xs, float), np.asarray(ys, float)))

    def add_band(self, label: str, xs, lo, hi) -> None:
        self.bands.append((label, np.asarray(xs, float),
                           np.asarray(lo, float), np.asarray(hi, float)))

    def _limits(self):
        xs = np.concatenate([s[1] for s in self.series] + [b[1] for b in self.bands])
        ys = np.concatenate([s[2] for s in self.series]
                            + [np.concatenate([b[2], b[3]]) for b in self.bands])
        ys = ys[np.isfinite(ys)]
        if self.log_y:
            ys = ys[ys > 0]
        if len(xs) == 0 or len(ys) == 0:
            raise ValueError("nothing to plot")
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        return x0, x1, y0, y1

    def render(self, path) -> None:
        if not self.series and not self.bands:
            raise ValueError("nothing to plot")
        x0, x1, y0, y1 = self._limits()

        def tx(x):
            return MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

        def ty(y):
            if self.log_y:
                lo, hi = np.log10(y0), np.log10(y1)
                frac = (np.log10(max(y, y0)) - lo) / (hi - lo)
            else:
                frac = (y - y0) / (y1 - y0)
            return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

        parts = [_svg_header(self.title)]
        parts.append(_axes(x0, x1, y0, y1, tx, ty, self.x_label, self.y_label,
                           self.log_y))
        for i, (label, xs, lo, hi) in enumerate(self.bands):
            color = PALETTE[i % len(PALETTE)]
            pts = [(tx(x), ty(v)) for x, v in zip(xs, lo)]
            pts += [(tx(x), ty(v)) for x, v in zip(xs[::-1], hi[::-1])]
            coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
            parts.append(f'<polygon points="{coords}" fill="{color}" opacity="0.18"/>')
        for i, (label, xs, ys) in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            finite = np.isfinite(ys)
            coords = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}"
                              for x, y in zip(xs[finite], ys[finite]))
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"/>')
            parts.append(f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 16 * i}" '
                         f'text-anchor="end" font-size="12" '
                         f'fill="{color}">{_escape(label)}</text>')
        parts.append("</svg>\n")
        with open(path, "w") as fh:
            fh.write("\n".join(parts))


def box_summary(path, title: str, groups: dict[str, np.ndarray]) -> None:
    """Quartile box summaries (min/q1/median/q3/max whisker boxes) per group."""
    if not groups:
        raise ValueError("nothing to plot")
    labels = list(groups)
    stats = {k: np.percentile(np.asarray(v, float), [0, 25, 50, 75, 100])
             for k, v in groups.items()}
    y0 = min(s[0] for s in stats.values())
    y1 = max(s[4] for s in stats.values())
    if y1 == y0:
        y1 = y0 + 1.0

    def ty(y):
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * (HEIGHT - MARGIN_T - MARGIN_B)

    span = WIDTH - MARGIN_L - MARGIN_R
    slot = span / len(labels)
    parts = [_svg_header(title)]
    parts.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
                 f'y2="{HEIGHT - MARGIN_B}" stroke="#222" stroke-width="1"/>')
    for i, label in enumerate(labels):
        mn, q1, med, q3, mx = stats[label]
        cx = MARGIN_L + slot * (i + 0.5)
        half = min(34.0, slot * 0.3)
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(ty(mn))}" x2="{_fmt(cx)}" '
                     f'y2="{_fmt(ty(mx))}" stroke="{color}" stroke-width="1"/>')
        parts.append(f'<rect x="{_fmt(cx - half)}" y="{_fmt(ty(q3))}" '
                     f'width="{_fmt(2 * half)}" height="{_fmt(ty(q1) - ty(q3))}" '
                     f'fill="{color}" opacity="0.35" stroke="{color}"/>')
        parts.append(f'<line x1="{_fmt(cx - half)}" y1="{_fmt(ty(med))}" '
                     f'x2="{_fmt(cx + half)}" y2="{_fmt(ty(med))}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_fmt(cx)}" y="{HEIGHT - MARGIN_B + 16}" '
                     f'text-anchor="middle" font-size="12" fill="#222">{_escape(label)}</text>')
        parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(ty(med) - 6)}" '
                     f'text-anchor="middle" font-size="10" fill="#222">{_fmt(med)}</text>')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def scatter(path, title: str, groups: dict[str, np.ndarray],
            x_label: str = "", y_label: str = "") -> None:
    """Scatter plot of labeled 2D point groups."""
    if not groups:
        raise ValueError("nothing to plot")
    allpts = np.concatenate([np.asarray(v, float) for v in groups.values()])
    x0, x1 = float(allpts[:, 0].min()), float(allpts[:, 0].max())
    y0, y1 = float(allpts[:, 1].min()), float(allpts[:, 1].max())
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def tx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def ty(y):
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [_svg_header(title),
             _axes(x0, x1, y0, y1, tx, ty, x_label, y_label, False)]
    for i, (label, pts) in enumerate(groups.items()):
        color = PALETTE[i % len(PALETTE)]
        for px, py in np.asarray(pts, float):
            parts.append(f'<circle cx="{_fmt(tx(px))}" cy="{_fmt(ty(py))}" r="1.6" '
                         f'fill="{color}" opacity="0.6"/>')
        parts.append(f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 16 * i}" '
                     f'text-anchor="end" font-size="12" fill="{color}">{_escape(label)}</text>')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def _svg_header(title: str) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        head += (f'\n<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
                 f'font-size="14" fill="#111">{_escape(title)}</text>')
    return head


def _axes(x0, x1, y0, y1, tx, ty, x_label, y_label, log_y) -> str:
    parts = [
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="#222" stroke-width="1"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="#222" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        if log_y:
            yv = 10 ** (np.log10(y0) + frac * (np.log10(y1) - np.log10(y0)))
        else:
            yv = y0 + frac * (y1 - y0)
        parts.append(f'<text x="{_fmt(tx(xv))}" y="{HEIGHT - MARGIN_B + 16}" '
                     f'text-anchor="middle" font-size="10" fill="#444">{_fmt(xv)}</text>')
        parts.append(f'<text x="{MARGIN_L - 6}" y="{_fmt(ty(yv) + 3)}" '
                     f'text-anchor="end" font-size="10" fill="#444">{_fmt(yv)}</text>')
    if x_label:
        parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" '
                     f'y="{HEIGHT - 8}" text-anchor="middle" font-size="12" '
                     f'fill="#111">{_escape(x_label)}</text>')
    if y_label:
        cy = (MARGIN_T + HEIGHT - MARGIN_B) // 2
        parts.append(f'<text x="14" y="{cy}" text-anchor="middle" font-size="12" '
                     f'fill="#111" transform="rotate(-90 14 {cy})">{_escape(y_label)}</text>')
    return "\n".join(parts)
