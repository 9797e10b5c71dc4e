"""Value-oracle interface shared by exact, noisy and surrogate set-function
evaluation.  An oracle answers one set given as an int mask, or a batch
given as packed rows (see `sets`): a (k, ceil(n/8)) uint8 matrix whose row
r is the little-endian bytes of mask r."""
from __future__ import annotations

import numpy as np

from .sets import ElementSet, GroundSet, mask_error, row_masks
from .setfn import SetFunctionSpec, evaluate_mask


def check_rows(rows, n: int) -> np.ndarray:
    """Packed rows over n elements, or ValueError: the batch form of the
    one-set test `mask >> n`.  Any other dtype or width (boolean or 0/1
    membership rows included) is an error, as is a row with a bit at n or
    above, which can only sit in the last byte."""
    rows = np.asarray(rows)
    width = (n + 7) // 8
    if rows.dtype != np.uint8 or rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"rows of dtype {rows.dtype} and shape {rows.shape}, "
                         f"expected uint8 packed rows of shape (k, {width})")
    if n % 8 and np.any(rows[:, -1] >> n % 8):
        raise mask_error(max(row_masks(rows)), n)  # the largest mask is outside
    return rows


class ValueOracle:
    """Set-function evaluation interface.  Subclasses implement value_mask;
    evaluation must be pure given the oracle's construction-time state."""

    ground: GroundSet

    def value_mask(self, mask: int) -> float:
        raise NotImplementedError

    def value_masks(self, rows) -> np.ndarray:
        """Values of the sets given by packed rows: one `value_mask` call
        per row, in row order.  An oracle with a vectorised evaluation
        overrides this."""
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

    def value_mask(self, mask: int) -> float:
        # evaluate_mask rejects a mask outside the ground set
        return evaluate_mask(self.spec, mask)

    def value_masks(self, rows) -> np.ndarray:
        return self.spec.value_masks(check_rows(rows, self.ground.n))
