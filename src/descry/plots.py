"""Hand-emitted SVG plots: no plotting dependency, byte-stable output.

Fixed 800x500 viewBox with a curve polyline, optional dashed confidence-band
polygons (estimation-only inner, combined outer), and a group-size histogram
rug along the bottom edge.
"""

from . import __version__

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 20, 40, 60
RUG_HEIGHT = 36


def _escape(text):
    """text with &, < and > escaped, as xml.sax.saxutils.escape does; that
    module imports urllib.request, about 30 ms of every CLI start."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x):
    return f"{x:.2f}"


def _scale(lo, hi, pad=0.05):
    span = hi - lo
    if span <= 0:
        span = abs(hi) if hi != 0 else 1.0
        lo, hi = lo - span / 2, hi + span / 2
        span = hi - lo
    return lo - pad * span, hi + pad * span


def _ticks(lo, hi, count=5):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


class _Canvas:
    def __init__(self, x_range, y_range):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        self.plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        self.plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x(self, v):
        return MARGIN_LEFT + (v - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def y(self, v):
        return MARGIN_TOP + (self.y_hi - v) / (self.y_hi - self.y_lo) * self.plot_h


def _band_polygon(canvas, xs, los, his, color):
    forward = " ".join(f"{_fmt(canvas.x(x))},{_fmt(canvas.y(hi))}" for x, hi in zip(xs, his))
    backward = " ".join(f"{_fmt(canvas.x(x))},{_fmt(canvas.y(lo))}"
                        for x, lo in zip(reversed(xs), reversed(los)))
    return (f'<polygon points="{forward} {backward}" fill="{color}" fill-opacity="0.12" '
            f'stroke="{color}" stroke-width="1.2" stroke-dasharray="6,4"/>')


def curve_svg(curve, title="", x_label="", y_label="", ci_ee=None, ci_me_ee=None):
    """Render a descriptor curve (list of (x, estimate, size) rows) to SVG text."""
    xs = [float(v) for v, _, _ in curve]
    ys = [float(e) for _, e, _ in curve]
    y_all = list(ys)
    for band in (ci_ee, ci_me_ee):
        if band is not None:
            y_all.extend(float(b[0]) for b in band)
            y_all.extend(float(b[1]) for b in band)
    canvas = _Canvas(_scale(min(xs), max(xs)), _scale(min(y_all), max(y_all)))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="sans-serif" font-size="13">',
        f"<!-- descry {__version__} -->",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
                     f'font-size="16">{_escape(title)}</text>')

    # axes and ticks
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    parts.append(f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_RIGHT}" y2="{y0}" '
                 f'stroke="black"/>')
    for tick in _ticks(canvas.x_lo, canvas.x_hi):
        px = canvas.x(tick)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 20}" text-anchor="middle">'
                     f'{_fmt(tick)}</text>')
    for tick in _ticks(canvas.y_lo, canvas.y_hi):
        py = canvas.y(tick)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end">'
                     f'{_fmt(tick)}</text>')
    if x_label:
        parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 14}" text-anchor="middle">'
                     f'{_escape(x_label)}</text>')
    if y_label:
        parts.append(f'<text x="18" y="{HEIGHT / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 18 {HEIGHT / 2})">{_escape(y_label)}</text>')

    # confidence bands: combined (outer) first so the inner band overlays it
    if ci_me_ee is not None:
        parts.append(_band_polygon(canvas, xs, [b[0] for b in ci_me_ee],
                                   [b[1] for b in ci_me_ee], "#d62728"))
    if ci_ee is not None:
        parts.append(_band_polygon(canvas, xs, [b[0] for b in ci_ee],
                                   [b[1] for b in ci_ee], "#1f77b4"))

    points = " ".join(f"{_fmt(canvas.x(x))},{_fmt(canvas.y(y))}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#222222" '
                 f'stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{_fmt(canvas.x(x))}" cy="{_fmt(canvas.y(y))}" r="3" '
                     f'fill="#222222"/>')

    # group-size rug
    sizes = [g for _, _, g in curve]
    max_size = max(sizes) if sizes and max(sizes) > 0 else 1
    bar_w = max(2.0, canvas.plot_w / max(len(xs), 1) * 0.5)
    for x, size in zip(xs, sizes):
        bar_h = RUG_HEIGHT * (size / max_size)
        parts.append(f'<rect class="rug" x="{_fmt(canvas.x(x) - bar_w / 2)}" '
                     f'y="{_fmt(y0 - bar_h)}" width="{_fmt(bar_w)}" '
                     f'height="{_fmt(bar_h)}" fill="#999999" fill-opacity="0.5"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_curve_svg(path, curve, **kwargs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(curve_svg(curve, **kwargs))
