"""Test-only oracles and reference functions shared by the tests: an
adversarial eps-perturbed oracle, the sampled surrogate of one set, and
the exact partial derivative of the multilinear extension."""
import numpy as np

from noisysubmax.oracles import ValueOracle
from noisysubmax.sets import ElementSet
from noisysubmax.setfn import _check_point, multilinear_exact
from noisysubmax.surrogate import SampledSurrogateOracle, SurrogateConfig


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


def surrogate_sampled(o: ValueOracle, cfg: SurrogateConfig, s: ElementSet) -> float:
    return SampledSurrogateOracle(o, cfg).value(s)


def multilinear_partial_exact(fn_or_spec, x: np.ndarray, i: int) -> float:
    """Exact i-th partial derivative of the multilinear extension."""
    n = fn_or_spec.n if hasattr(fn_or_spec, "n") else len(x)
    x = _check_point(x, n)
    hi = x.copy()
    hi[i] = 1.0
    lo = x.copy()
    lo[i] = 0.0
    return multilinear_exact(fn_or_spec, hi) - multilinear_exact(fn_or_spec, lo)
