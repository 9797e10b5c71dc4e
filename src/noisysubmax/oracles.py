"""Value-oracle interface shared by exact, noisy and surrogate set-function
evaluation."""
from __future__ import annotations

import numpy as np

from .sets import ElementSet, GroundSet, row_masks
from .setfn import SetFunctionSpec, evaluate_mask, evaluate_masks


def check_rows(rows, n: int) -> np.ndarray:
    """A (k, n) boolean membership matrix, or ValueError.  Integer rows
    are accepted when every entry is 0 or 1; any other entry (a 0.5, a 2)
    is an error rather than being cast to True."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"rows of shape {rows.shape}, expected (k, {n})")
    if rows.dtype != bool:
        if rows.dtype.kind not in "iu" or not np.all((rows == 0) | (rows == 1)):
            raise ValueError(f"rows of dtype {rows.dtype} must be boolean, "
                             "or integers that are all 0 or 1")
        rows = rows.astype(bool)
    return rows


class ValueOracle:
    """Set-function evaluation interface.  Subclasses implement value_mask;
    evaluation must be pure given the oracle's construction-time state."""

    ground: GroundSet

    def value_mask(self, mask: int) -> float:
        raise NotImplementedError

    def value_masks(self, rows) -> np.ndarray:
        """Values of the sets given by the rows of a (k, n) boolean
        membership matrix: one `value_mask` call per row, in row order.
        An oracle with a vectorised evaluation overrides this."""
        rows = check_rows(rows, self.ground.n)
        return np.array([self.value_mask(mask) for mask in row_masks(rows)],
                        dtype=np.float64)

    def value(self, s: ElementSet) -> float:
        if s.ground.n != self.ground.n:
            raise ValueError("set over a different ground set than the oracle")
        return self.value_mask(s.mask)


class ExactOracle(ValueOracle):
    def __init__(self, spec: SetFunctionSpec):
        self.spec = spec
        self.ground = GroundSet(spec.n)
        self._n = spec.n

    def value_mask(self, mask: int) -> float:
        # evaluate_mask rejects a mask outside the ground set
        return evaluate_mask(self.spec, mask)

    def value_masks(self, rows) -> np.ndarray:
        return evaluate_masks(self.spec, check_rows(rows, self._n))
