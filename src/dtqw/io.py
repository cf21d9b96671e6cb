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

import numpy as np


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


def write_csv(path, header, table):
    """Write an (n, len(header)) table of numbers under a comma-joined
    header, one "%.17g" cell each; n = 0 writes the header alone, and a
    table of any other shape raises ValueError."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"table of shape {table.shape} does not fit the "
                         f"{len(header)} columns {header}")
    row = ",".join(["%.17g"] * len(header)) + "\n"
    _atomic_write_text(path, ",".join(header) + "\n"
                       + (row * len(table)) % tuple(table.ravel().tolist()))


def write_json(path, obj):
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# --- SVG -------------------------------------------------------------------

_W, _H, _M = 640, 480, 56


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
        parts.append(f'<text x="{xp:.2f}" y="{y0 + 18}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{xv:.4g}</text>')
        parts.append(f'<text x="{x0 - 6}" y="{yp + 4:.2f}" '
                     f'text-anchor="end" font-family="monospace" '
                     f'font-size="11">{yv:.4g}</text>')
    return parts


def _plot(path, xs, ys, x_label, y_label, point, sep, element):
    """Axes spanning (xs, ys), then `element` around the points, each
    written by the two-slot `point` template and joined by `sep`; axes
    only when empty.  An axis whose values are all equal spans +-0.5."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    rngs = []
    for v in (xs, ys):
        lo, hi = (float(v.min()), float(v.max())) if len(v) else (0.0, 1.0)
        rngs.append((lo - 0.5, hi + 0.5) if hi == lo else (lo, hi))
    (x_lo, x_hi), (y_lo, y_hi) = rngs
    parts = _frame(x_label, y_label, *rngs)
    if len(xs):
        x0, x1 = _M, _W - _M
        y0, y1 = _H - _M, _M
        px = x0 + (xs - x_lo) / (x_hi - x_lo) * (x1 - x0)
        py = y0 - (ys - y_lo) / (y_hi - y_lo) * (y0 - y1)
        pts = np.column_stack((px, py)).ravel().tolist()
        parts.append(element.format(sep.join([point] * len(xs)) % tuple(pts)))
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")


def svg_polyline(path, xs, ys, x_label="x", y_label="y"):
    """One connected line through (xs, ys); axes only when empty."""
    _plot(path, xs, ys, x_label, y_label, "%.2f,%.2f", " ",
          '<polyline points="{}" fill="none" stroke="#1060c0" '
          'stroke-width="1.2"/>')


def svg_scatter(path, xs, ys, x_label="x", y_label="y"):
    """Dot markers at (xs, ys); axes only when empty."""
    _plot(path, xs, ys, x_label, y_label,
          '<circle cx="%.2f" cy="%.2f" r="1.4" fill="#103060"/>', "\n", "{}")
