"""Value-oracle interface shared by exact, noisy, surrogate, and perturbed
set-function evaluation."""
from __future__ import annotations

from .sets import ElementSet, GroundSet
from .setfn import SetFunctionSpec, evaluate_mask, ground_of


class ValueOracle:
    """Set-function evaluation interface.  Subclasses implement value_mask;
    evaluation must be pure given the oracle's construction-time state."""

    ground: GroundSet

    def value_mask(self, mask: int) -> float:
        raise NotImplementedError

    def value(self, s: ElementSet) -> float:
        if s.ground.n != self.ground.n:
            raise ValueError("set over a different ground set than the oracle")
        return self.value_mask(s.mask)


class ExactOracle(ValueOracle):
    def __init__(self, spec: SetFunctionSpec):
        self.spec = spec
        self.ground = ground_of(spec)

    def value_mask(self, mask: int) -> float:
        return evaluate_mask(self.spec, mask)


class PerturbedOracle(ValueOracle):
    """Deterministic eps-approximate oracle: adds +eps on sets of even size
    and -eps on sets of odd size (so repeated queries agree)."""

    def __init__(self, inner: ValueOracle, eps: float):
        self.inner = inner
        self.ground = inner.ground
        self.eps = eps

    def value_mask(self, mask: int) -> float:
        sign = 1.0 if mask.bit_count() % 2 == 0 else -1.0
        return self.inner.value_mask(mask) + self.eps * sign
