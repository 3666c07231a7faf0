"""Forms of the pipeline's results that only the tests read, built on the
code the stages run.

``component_cells`` is ``roofs.label_components`` as lists of (row, col)
cells, the form the flood-fill oracles compare. ``ok_solve`` is the
neighbour search and the kriging system of ``interp.kriging_predict`` for
any query, on the sample itself too. ``idw_predict`` is the inverse
distance estimate that no stage runs; it still exercises
``SampleSet.nearest``. ``IndicatorVector`` holds one building's six
normalized indicators with their [0, 1] check, and ``equal_weight_priority``
scores it by the rule of ``cli.cmd_prioritize`` under the equal scheme.
"""
import math
from dataclasses import dataclass

import numpy as np

from greenprior.indicators import INDICATORS
from greenprior.interp import MATCH_TOL, _ok_weights
from greenprior.priority import compute_weights
from greenprior.roofs import label_components


def component_cells(dsm):
    """label_components(dsm) as lists of (row, col) cells, in that order."""
    surf = dsm.occupied_cells()
    return [list(zip(*(v.tolist() for v in np.divmod(surf.flat[at], surf.ncols))))
            for at in label_components(surf)]


def ok_solve(samples, model, x, y, k_neighbors):
    """Neighbor indices, kriging weights and Lagrange multipliers, stacked like x."""
    d, idx = samples.nearest(x, y, k_neighbors)
    return (idx, *_ok_weights(samples, model, d, idx))


def idw_predict(samples, x, y, power: float = 2.0, k_neighbors: int = 12):
    """Inverse-distance estimate at (x, y), shaped like x (a float for a scalar)."""
    d, idx = samples.nearest(np.ravel(x), np.ravel(y), k_neighbors)
    out = samples.values[idx[:, 0]]
    far = d[:, 0] >= MATCH_TOL
    w = d[far] ** (-power)
    out[far] = np.sum(w * samples.values[idx[far]], axis=1) / np.sum(w, axis=1)
    return out.reshape(np.shape(x))[()]


@dataclass
class IndicatorVector:
    """The six normalized indicators, each in [0, 1], in canonical order."""

    greenspace: float
    road_distance: float
    category: float
    income: float
    temperature: float
    precipitation: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in INDICATORS])

    def __post_init__(self):
        for f in INDICATORS:
            v = getattr(self, f)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"indicator {f}={v} outside [0, 1]")


def equal_weight_priority(vector):
    """The equal-scheme priority of one building, as cmd_prioritize computes
    it: the correctly rounded sum of its indicators times the weights."""
    row = vector.as_array()[None]
    return math.fsum((row * compute_weights(row, "equal")).tolist()[0])
