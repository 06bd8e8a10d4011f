"""ASCII chart renderers (no third-party dependencies)."""

from __future__ import annotations

from typing import Mapping

#: Distinct plotting glyphs, one per series.
GLYPHS = "ox+*#@%&"


def line_chart(
    series: Mapping[str, Mapping[float, float | None]],
    width: int = 72,
    height: int = 18,
    title: str = "",
    ylabel: str = "",
) -> str:
    """Render multiple (x -> y) series on one ASCII grid.

    ``None`` values (the paper's missing points) are skipped.  X positions are
    scaled by value (not by index) so uneven sweeps render proportionally.
    """
    points: list[tuple[float, float, int]] = []
    names = list(series)
    for idx, name in enumerate(names):
        for x, y in series[name].items():
            if y is not None:
                points.append((float(x), float(y), idx))
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, idx in points:
        col = int((x - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        cell = grid[row][col]
        grid[row][col] = GLYPHS[idx % len(GLYPHS)] if cell == " " else "?"
    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        if r == 0:
            label = f"{y_hi:8.1f} |"
        elif r == height - 1:
            label = f"{y_lo:8.1f} |"
        elif r == height // 2:
            label = f"{(y_lo + y_hi) / 2:8.1f} |"
        else:
            label = "         |"
        lines.append(label + "".join(row))
    lines.append("         +" + "-" * width)
    lines.append(f"          {x_lo:<12.0f}{ylabel:^{max(0, width - 24)}}{x_hi:>12.0f}")
    legend = "  ".join(
        f"{GLYPHS[i % len(GLYPHS)]}={name}" for i, name in enumerate(names)
    )
    lines.append(f"          {legend}  ('?' = overplot)")
    return "\n".join(lines)
