"""Report emission: byte-stable CSV, JSON summaries, self-contained SVG plots.

Every float in a CSV is printed with 17 significant digits in scientific
notation, so repeated runs of the same config produce byte-identical numeric
fields.  Files are written atomically (temp file in the target directory,
then rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile

__all__ = [
    "format_float",
    "atomic_write",
    "git_blob_sha",
    "write_csv",
    "write_json",
    "svg_loglog",
]


def format_float(x: float) -> str:
    """Fixed 17-significant-digit scientific notation (cross-platform stable)."""
    return f"{float(x):.16e}"


def atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise OSError(f"cannot write {path}: {e}") from e


def git_blob_sha(data: bytes) -> str:
    """Git-style content hash (sha1 over a blob header plus the bytes).

    hashlib is imported here, not at module level: it loads OpenSSL (3-4 MB of
    RSS), which a command then pays only once its output is written."""
    import hashlib

    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write rows whose cells are ints (verbatim) or floats (17 sig digits)."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("1" if cell else "0")
            elif isinstance(cell, int):
                cells.append(str(cell))
            else:
                cells.append(format_float(cell))
        lines.append(",".join(cells))
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def svg_loglog(series: dict[str, list[tuple[float, float]]],
               xlabel: str, ylabel: str, title: str = "") -> str:
    """Minimal self-contained log-log line plot: one polyline per series."""
    width, height = 640, 440
    ml, mr, mt, mb = 70, 20, 30, 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width//2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width//2}" y="{height-10}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height//2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height//2})">{ylabel}</text>',
        f'<rect x="{ml}" y="{mt}" width="{width-ml-mr}" height="{height-mt-mb}" '
        f'fill="none" stroke="#333"/>',
    ]
    pts = [p for pp in series.values() for p in pp if p[0] > 0 and p[1] > 0]
    if not pts:  # no positive point (e.g. every error 0): the empty frame
        return "\n".join(parts + ["</svg>"]) + "\n"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = math.log10(min(xs)), math.log10(max(xs))
    y0, y1 = math.log10(min(ys)), math.log10(max(ys))
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-9:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def sx(x):
        return ml + (math.log10(x) - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (math.log10(y) - y0) / (y1 - y0) * (height - mt - mb)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    for t in _ticks(min(xs), max(xs)):
        if 10**x0 <= t <= 10**x1:
            parts.append(f'<line x1="{sx(t):.1f}" y1="{height-mb}" x2="{sx(t):.1f}" '
                         f'y2="{height-mb+5}" stroke="#333"/>')
            parts.append(f'<text x="{sx(t):.1f}" y="{height-mb+18}" text-anchor="middle" '
                         f'font-size="10">1e{int(math.log10(t))}</text>')
    for t in _ticks(min(ys), max(ys)):
        if 10**y0 <= t <= 10**y1:
            parts.append(f'<line x1="{ml-5}" y1="{sy(t):.1f}" x2="{ml}" '
                         f'y2="{sy(t):.1f}" stroke="#333"/>')
            parts.append(f'<text x="{ml-8}" y="{sy(t):.1f}" text-anchor="end" '
                         f'font-size="10">1e{int(math.log10(t))}</text>')
    for i, (name, pp) in enumerate(series.items()):
        good = [(x, y) for x, y in pp if x > 0 and y > 0]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in good)
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in good:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{width-mr-5}" y="{mt+14*(i+1)}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
