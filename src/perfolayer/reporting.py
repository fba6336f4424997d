"""Report emission: data tables, structured summaries and plot-data files.

All tables are UTF-8 with LF line endings and '.' decimal separator; floats
are written with repr (shortest round-trip), so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def write_xy(path, xs, ys) -> None:
    """Two-column 'x y' series for external plotting."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for x, y in zip(xs, ys):
            f.write(f"{_fmt(float(x))} {_fmt(float(y))}\n")


def _summary_lines(tree, indent=0):
    pad = "  " * indent
    for key, value in tree.items():
        if isinstance(value, dict):
            yield f"{pad}{key}:"
            yield from _summary_lines(value, indent + 1)
        elif isinstance(value, (list, tuple)):
            yield f"{pad}{key} = [" + ", ".join(_fmt(v) for v in value) + "]"
        else:
            yield f"{pad}{key} = {_fmt(value)}"


def write_summary(path, tree) -> None:
    """Structured key-value summary document."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in _summary_lines(tree):
            f.write(line + "\n")


def effective_model_lines(eff, digest: str, resolution: int) -> list:
    """Text document for the homogenized tensors (1-based tensor indices)."""
    lines = [
        "PERFOLAYER-EFFECTIVE v1",
        f"geometry_hash = {digest}",
        f"resolution = {resolution}",
        f"solid_volume = {_fmt(float(eff.solid_volume))}",
    ]
    for name, tensor in (("a_star", eff.a_star), ("b_star", eff.b_star),
                         ("c_star", eff.c_star)):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        lines.append(
                            f"{name}[{i + 1}][{j + 1}][{k + 1}][{l + 1}] = "
                            f"{_fmt(float(tensor[i, j, k, l]))}")
    return lines


def write_effective_model(path, eff, digest, resolution) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in effective_model_lines(eff, digest, resolution):
            f.write(line + "\n")


def write_report(summary: dict, series: dict, outdir) -> None:
    """Emit the summary tree and the plot-data series {name: (xs, ys)}."""
    os.makedirs(outdir, exist_ok=True)
    write_summary(os.path.join(outdir, "summary.txt"), summary)
    if series:
        plots = os.path.join(outdir, "plots")
        os.makedirs(plots, exist_ok=True)
        for name, (xs, ys) in series.items():
            write_xy(os.path.join(plots, f"{name}.xy"), xs, ys)
