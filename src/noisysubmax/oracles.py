"""Value-oracle interface shared by exact, noisy and surrogate set-function
evaluation.  An oracle answers one set given as an int mask, or a batch
given as packed rows (see `sets`): a (k, ceil(n/8)) uint8 matrix whose row
r is the little-endian bytes of mask r.  `value_masks` checks a batch once,
with `sets.check_rows`, and hands the checked rows to `_value_rows`."""
from __future__ import annotations

import numpy as np

from .sets import ElementSet, GroundSet, check_rows, row_masks
from .setfn import SetFunctionSpec, evaluate_mask


class ValueOracle:
    """Set-function evaluation interface.  Subclasses implement value_mask;
    evaluation must be pure given the oracle's construction-time state."""

    ground: GroundSet

    def value_mask(self, mask: int) -> float:
        raise NotImplementedError

    def value_masks(self, rows) -> np.ndarray:
        """Values of the sets given by packed rows, in row order; ValueError
        for rows that `check_rows` rejects."""
        return self._value_rows(check_rows(rows, self.ground.n))

    def _value_rows(self, rows: np.ndarray) -> np.ndarray:
        """`value_masks` of checked rows: one `value_mask` call per row.  An
        oracle with a vectorised evaluation overrides this."""
        return np.array([self.value_mask(mask) for mask in row_masks(rows)],
                        dtype=np.float64)

    def value(self, s: ElementSet) -> float:
        self.ground.check_same(s.ground, "set", "oracle")
        return self.value_mask(s.mask)


class ExactOracle(ValueOracle):
    def __init__(self, spec: SetFunctionSpec):
        self.spec = spec
        self.ground = GroundSet(spec.n)

    def value_mask(self, mask: int) -> float:
        # evaluate_mask rejects a mask outside the ground set
        return evaluate_mask(self.spec, mask)

    def _value_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.spec.value_masks(rows)
