"""Dense-table value oracle shared by the tests."""
from noisysubmax.oracles import ValueOracle
from noisysubmax.sets import GroundSet
from noisysubmax.setfn import value_table


class TableOracle(ValueOracle):
    """Exact oracle backed by the function's 2^n value table, for fast
    repeated evaluation."""

    def __init__(self, spec):
        self.ground = GroundSet(spec.n)
        self.table = value_table(spec)

    def value_mask(self, mask: int) -> float:
        return float(self.table[mask])
