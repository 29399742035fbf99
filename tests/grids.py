"""The whole grid (P^1(F_p))^4 as one point array, for the tests' oracles.

The program itself never holds the grid: its two grid scans
(``cover.brute_force_count`` and ``cover.downstairs_image_set``) read it in
blocks.
"""

from itertools import product

import numpy as np

from upv.cover import PointArray


def all_p1(p: int) -> PointArray:
    """Every point of (P^1(F_p))^4, by chart and then by values."""
    charts, vals = [], []
    for chart in product((0, 1), repeat=4):
        grid = np.indices([p if c == 0 else 1 for c in chart],
                          dtype=np.int64).reshape(4, -1).T
        vals.append(grid)
        charts.append(np.broadcast_to(np.array(chart, dtype=np.int64), grid.shape))
    return PointArray(p, np.concatenate(charts), np.concatenate(vals))
