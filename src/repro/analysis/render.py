"""Terminal rendering of matrices and histograms.

The paper's Figs. 2/5/7 are images; in a terminal-only environment we
render the same content as density-coded text so the benchmark output
remains inspectable.  No plotting dependency required.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Density ramp from empty to full.
_RAMP = " .:-=+*#%@"


def render_heatmap(
    matrix: np.ndarray,
    max_size: int = 32,
    title: Optional[str] = None,
) -> str:
    """Render a non-negative matrix as density-coded characters.

    Larger matrices are average-pooled down to ``max_size`` per side.
    Values are normalized to the matrix max.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    m = np.clip(m, 0.0, None)

    def pool(x: np.ndarray, target: int, axis: int) -> np.ndarray:
        size = x.shape[axis]
        if size <= target:
            return x
        # Pad to a multiple of target, then mean-pool.
        factor = int(np.ceil(size / target))
        pad = factor * target - size
        pad_widths = [(0, 0), (0, 0)]
        pad_widths[axis] = (0, pad)
        x = np.pad(x, pad_widths, mode="edge")
        new_shape = list(x.shape)
        new_shape[axis] = target
        new_shape.insert(axis + 1, factor)
        return x.reshape(new_shape).mean(axis=axis + 1)

    m = pool(pool(m, max_size, 0), max_size, 1)
    peak = m.max()
    if peak > 0:
        m = m / peak
    lines: List[str] = []
    if title:
        lines.append(title)
    for row in m:
        chars = [_RAMP[min(len(_RAMP) - 1, int(v * (len(_RAMP) - 1) + 0.5))] for v in row]
        lines.append("".join(chars))
    return "\n".join(lines)


def render_histogram(
    counts: Sequence[float],
    labels: Optional[Sequence[str]] = None,
    width: int = 50,
    title: Optional[str] = None,
) -> str:
    """Render a horizontal bar chart of ``counts``."""
    counts = np.asarray(list(counts), dtype=np.float64)
    if counts.ndim != 1:
        raise ValueError("counts must be 1-D")
    if labels is not None and len(labels) != len(counts):
        raise ValueError("labels length must match counts")
    peak = counts.max() if counts.size else 0.0
    lines: List[str] = []
    if title:
        lines.append(title)
    for i, value in enumerate(counts):
        label = labels[i] if labels is not None else str(i)
        bar_len = 0 if peak <= 0 else int(round(value / peak * width))
        lines.append(f"{label:>12s} | {'#' * bar_len} {value:g}")
    return "\n".join(lines)
