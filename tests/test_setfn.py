import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax.matroids import UniformMatroid
from noisysubmax.random_instances import (random_coverage, random_cut,
                                          random_submodular, random_waq)
from noisysubmax.sets import ElementSet, GroundSet
from noisysubmax.setfn import (Coverage, CutFunction, Modular,
                               WeightedAdditiveQuadratic, brute_force_opt,
                               check_submodular, evaluate, evaluate_mask,
                               marginal, multilinear_exact,
                               multilinear_partial_exact, table_is_submodular,
                               value_table)


def naive_value(spec, members):
    if isinstance(spec, WeightedAdditiveQuadratic):
        return sum(spec.weights[i] for i in members) - spec.cost * len(members) ** 2
    if isinstance(spec, Modular):
        return sum(spec.weights[i] for i in members)
    if isinstance(spec, Coverage):
        covered = set()
        for i in members:
            covered |= {j for j in range(len(spec.item_weights))
                        if (spec.covers[i] >> j) & 1}
        return sum(spec.item_weights[j] for j in covered)
    if isinstance(spec, CutFunction):
        s = set(members)
        return sum(w for u, v, w in spec.edges if (u in s) != (v in s))
    raise TypeError


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_naive(seed):
    rng = np.random.default_rng(seed)
    spec = random_submodular(9, rng)
    g = GroundSet(9)
    for _ in range(100):
        mask = int(rng.integers(1 << 9))
        got = evaluate(spec, ElementSet(g, mask))
        want = naive_value(spec, [i for i in range(9) if (mask >> i) & 1])
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_value_table_matches_evaluate(seed):
    rng = np.random.default_rng(10 + seed)
    for spec in (random_submodular(8, rng),
                 Modular(weights=tuple(float(w) for w in rng.uniform(-2.0, 4.0, size=8)))):
        table = value_table(spec)
        for mask in range(1 << 8):
            assert table[mask] == pytest.approx(evaluate_mask(spec, mask), abs=1e-9)


def test_marginal():
    spec = Modular(weights=(3.0, 1.0, 2.0))
    g = GroundSet(3)
    s = g.subset([0])
    assert marginal(spec, s, 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        marginal(spec, s, 0)


def test_brute_force_opt_matches_scan():
    rng = np.random.default_rng(3)
    for _ in range(5):
        spec = random_submodular(8, rng)
        table = value_table(spec)
        best_set, best_val = brute_force_opt(spec)
        assert best_val == pytest.approx(float(np.max(table)), abs=1e-12)
        assert table[best_set.mask] == pytest.approx(best_val, abs=1e-12)
        # constrained: optimum over sets of size <= 3
        m = UniformMatroid(GroundSet(8), 3)
        cset, cval = brute_force_opt(spec, m)
        sizes = np.bitwise_count(np.arange(256, dtype=np.uint64))
        want = float(np.max(table[sizes <= 3]))
        assert cval == pytest.approx(want, abs=1e-12)
        assert len(cset) <= 3


def test_brute_force_opt_tie_break_lowest_mask():
    spec = Modular(weights=(0.0, 0.0, 1.0))
    best_set, val = brute_force_opt(spec)
    assert val == pytest.approx(1.0)
    assert best_set.mask == 0b100  # lowest mask among the 4 tied optima


def naive_check_submodular(table, n, tol=1e-9):
    """Direct definition: f(A+x) - f(A) >= f(B+x) - f(B) for A ⊆ B, x ∉ B."""
    for b in range(1 << n):
        a = b
        while True:
            for x in range(n):
                if (b >> x) & 1:
                    continue
                bit = 1 << x
                if table[a | bit] - table[a] < table[b | bit] - table[b] - tol:
                    return False
            if a == 0:
                break
            a = (a - 1) & b
    return True


@pytest.mark.parametrize("seed", range(6))
def test_pairwise_check_equals_direct_definition(seed):
    rng = np.random.default_rng(seed)
    n = 6
    table = rng.normal(size=1 << n)
    if seed % 2 == 0:
        table = value_table(random_submodular(n, rng))
    assert table_is_submodular(table) == naive_check_submodular(table, n)


def test_known_families_are_submodular():
    rng = np.random.default_rng(7)
    g = GroundSet(8)
    assert check_submodular(WeightedAdditiveQuadratic(weights=(1.0,) * 8, cost=0.1), g)
    for _ in range(10):
        assert check_submodular(random_submodular(8, rng), g)


def test_non_submodular_detected():
    # f(S) = |S|^2 is supermodular, not submodular
    g = GroundSet(5)
    assert not check_submodular(lambda s: float(len(s) ** 2), g)


def test_submodularity_budget_enforced():
    with pytest.raises(ValueError):
        check_submodular(lambda s: 0.0, GroundSet(15))


def test_multilinear_exact_at_vertices():
    rng = np.random.default_rng(11)
    spec = random_submodular(7, rng)
    g = GroundSet(7)
    for _ in range(20):
        mask = int(rng.integers(1 << 7))
        s = ElementSet(g, mask)
        assert multilinear_exact(spec, s.indicator()) == pytest.approx(
            evaluate(spec, s), abs=1e-9)


def test_multilinear_partial_finite_difference():
    rng = np.random.default_rng(12)
    spec = random_submodular(6, rng)
    x = rng.uniform(0.05, 0.95, size=6)
    eps = 1e-6
    for i in range(6):
        xp = x.copy()
        xp[i] = min(x[i] + eps, 1.0)
        fd = (multilinear_exact(spec, xp) - multilinear_exact(spec, x)) / (xp[i] - x[i])
        assert fd == pytest.approx(multilinear_partial_exact(spec, x, i), abs=1e-5)


def test_point_validation():
    spec = Modular(weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        multilinear_exact(spec, np.array([0.5]))
    with pytest.raises(ValueError):
        multilinear_exact(spec, np.array([0.5, 1.5]))


def test_cut_rejects_edge_outside_vertices():
    CutFunction(3, ((0, 2, 1.0),))
    for edge in ((0, 7, 1.0), (3, 0, 1.0), (-1, 1, 1.0)):
        with pytest.raises(ValueError):
            CutFunction(3, (edge,))


def test_coverage_rejects_item_outside_weights():
    Coverage(covers=(0b011, 0b100), item_weights=(1.0, 2.0, 3.0))
    for cover in (0b1000, -1):
        with pytest.raises(ValueError):
            Coverage(covers=(0b001, cover), item_weights=(1.0, 2.0, 3.0))


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_modular_is_additive(weights):
    spec = Modular(weights=tuple(weights))
    n = len(weights)
    g = GroundSet(n)
    full = evaluate(spec, g.full_set())
    assert full == pytest.approx(sum(weights), abs=1e-9)


def test_random_generators_produce_submodular_nonnegative():
    rng = np.random.default_rng(21)
    g = GroundSet(8)
    for gen in (random_waq, random_coverage, random_cut):
        spec = gen(8, rng)
        assert check_submodular(spec, g)
        assert float(np.min(value_table(spec))) >= -1e-9
