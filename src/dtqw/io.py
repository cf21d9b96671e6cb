"""Deterministic file outputs: CSV, JSON, and minimal static SVG.

Everything written here is byte-identical across runs for identical
inputs: floats are serialized with 17 significant digits (exact double
round-trip), dict keys are sorted, and the SVG renderer embeds no
timestamps or generator tags.  All writes go through a temp file in the
target directory followed by an atomic rename.
"""

import json
import os
import tempfile


def _atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def format_number(v):
    """Canonical text for one CSV cell."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def write_csv(path, header, rows):
    """Write rows of numbers (or strings) under a comma-joined header."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else format_number(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, obj):
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# --- SVG -------------------------------------------------------------------

_W, _H, _M = 640, 480, 56


def _fmt_pt(v):
    return format(float(v), ".2f")


def _frame(x_label, y_label, x_rng, y_rng):
    x0, x1 = _M, _W - _M
    y0, y1 = _H - _M, _M
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{x_label}</text>',
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="13" '
        f'transform="rotate(-90 16 {(y0 + y1) // 2})">{y_label}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_rng[0] + frac * (x_rng[1] - x_rng[0])
        yv = y_rng[0] + frac * (y_rng[1] - y_rng[0])
        xp = x0 + frac * (x1 - x0)
        yp = y0 - frac * (y0 - y1)
        parts.append(f'<text x="{_fmt_pt(xp)}" y="{y0 + 18}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{xv:.4g}</text>')
        parts.append(f'<text x="{x0 - 6}" y="{_fmt_pt(yp + 4)}" '
                     f'text-anchor="end" font-family="monospace" '
                     f'font-size="11">{yv:.4g}</text>')
    return parts


def _ranges(xs, ys):
    if len(xs) == 0:
        return (0.0, 1.0), (0.0, 1.0)
    x_lo, x_hi = float(min(xs)), float(max(xs))
    y_lo, y_hi = float(min(ys)), float(max(ys))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    return (x_lo, x_hi), (y_lo, y_hi)


def _project(xs, ys, x_rng, y_rng):
    x0, x1 = _M, _W - _M
    y0, y1 = _H - _M, _M
    pts = []
    for x, y in zip(xs, ys):
        u = (float(x) - x_rng[0]) / (x_rng[1] - x_rng[0])
        v = (float(y) - y_rng[0]) / (y_rng[1] - y_rng[0])
        pts.append((x0 + u * (x1 - x0), y0 - v * (y0 - y1)))
    return pts


def svg_polyline(path, xs, ys, x_label="x", y_label="y"):
    """One connected line through (xs, ys); axes only when empty."""
    x_rng, y_rng = _ranges(xs, ys)
    parts = _frame(x_label, y_label, x_rng, y_rng)
    pts = _project(xs, ys, x_rng, y_rng)
    if pts:
        coords = " ".join(f"{_fmt_pt(px)},{_fmt_pt(py)}" for px, py in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="#1060c0" stroke-width="1.2"/>')
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")


def svg_scatter(path, xs, ys, x_label="x", y_label="y"):
    """Dot markers at (xs, ys); axes only when empty."""
    x_rng, y_rng = _ranges(xs, ys)
    parts = _frame(x_label, y_label, x_rng, y_rng)
    for px, py in _project(xs, ys, x_rng, y_rng):
        parts.append(f'<circle cx="{_fmt_pt(px)}" cy="{_fmt_pt(py)}" '
                     f'r="1.4" fill="#103060"/>')
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")
