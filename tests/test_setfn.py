import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax import setfn
from noisysubmax.matroids import UniformMatroid
from noisysubmax.random_instances import (random_coverage, random_cut,
                                          random_submodular, random_waq)
from noisysubmax.sets import ElementSet, GroundSet
from noisysubmax.setfn import (Coverage, CutFunction, Modular,
                               WeightedAdditiveQuadratic, brute_force_opt,
                               check_submodular, evaluate, evaluate_mask,
                               evaluate_masks, multilinear_exact,
                               table_is_submodular, value_table)

from reference import byte_sum_tables_by_bit_loop, multilinear_partial_exact


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
    assert check_submodular(WeightedAdditiveQuadratic(weights=(1.0,) * 8, cost=0.1))
    for _ in range(10):
        assert check_submodular(random_submodular(8, rng))


def test_non_submodular_detected():
    # f(S) = |S|^2 (a negative cost) is supermodular, not submodular
    assert not check_submodular(WeightedAdditiveQuadratic(weights=(0.0,) * 5, cost=-1.0))


def test_submodularity_budget_enforced():
    with pytest.raises(ValueError):
        check_submodular(Modular((0.0,) * 15))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_rejects_non_finite_coordinates(bad):
    spec = random_submodular(4, np.random.default_rng(5))
    with pytest.raises(ValueError, match="NaN or outside"):
        multilinear_exact(spec, np.array([bad, 0.5, 0.5, 0.0]))


def test_brute_force_over_the_table_budget_raises():
    with pytest.raises(ValueError, match="enumeration budget"):
        brute_force_opt(Modular((1.0,) * (setfn.MULTILINEAR_BUDGET + 1)))


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
    for gen in (random_waq, random_coverage, random_cut):
        spec = gen(8, rng)
        assert check_submodular(spec)
        assert float(np.min(value_table(spec))) >= -1e-9


# Cut evaluation: the one-set `value_mask` and the batch `value_masks(rows)`
# must both equal an edge loop bit for bit, with n up to 100 so that masks
# span more than 64 bits.

def rows_of(masks, n):
    return np.array([[(mask >> j) & 1 for j in range(n)] for mask in masks],
                    dtype=bool).reshape(len(masks), n)


def cut_by_edge_loop(spec, mask):
    """The cut value added edge by edge: the reference for both cut paths."""
    total = 0.0
    for u, v, w in spec.edges:
        if ((mask >> u) & 1) != ((mask >> v) & 1):
            total += w
    return total


def assert_batch_matches_scalar(spec, masks):
    got = spec.value_masks(rows_of(masks, spec.n))
    assert got.shape == (len(masks),)
    want = [float(spec.value_mask(m)) for m in masks]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert [v.hex() for v in want] == [cut_by_edge_loop(spec, m).hex() for m in masks]


@st.composite
def cut_and_masks(draw):
    n = draw(st.integers(1, 100))
    vertex = st.integers(0, n - 1)
    spec = CutFunction(n, tuple(draw(st.lists(
        st.tuples(vertex, vertex, st.floats(-5, 5, allow_nan=False)), max_size=300))))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    return spec, masks


@given(cut_and_masks())
@settings(max_examples=200, deadline=None)
def test_cut_value_masks_equals_value_mask(case):
    assert_batch_matches_scalar(*case)


def test_cut_value_masks_edge_cases():
    full = (1 << 70) - 1
    masks = [0, 1, 0b110, 1 << 69, full, full ^ (1 << 3), 0x2AAAAAAAAAAAAAAAAA]
    # unsorted endpoints, repeated edges, self-loops and signed zero weights
    messy = CutFunction(70, ((5, 2, 1.5), (2, 5, 1.5), (3, 3, 9.0), (69, 0, -0.0),
                             (0, 69, 0.1), (68, 1, -2.25), (5, 2, 1e-300)))
    assert_batch_matches_scalar(messy, masks)
    no_edges = CutFunction(70, ())
    assert_batch_matches_scalar(no_edges, masks)
    assert no_edges.value_masks(rows_of(masks, 70)).tolist() == [0.0] * len(masks)
    assert messy.value_masks(np.zeros((0, 70), dtype=bool)).shape == (0,)
    # an edge loop starts from 0.0, so a lone -0.0 weight adds up to 0.0
    assert_batch_matches_scalar(CutFunction(2, ((0, 1, -0.0),)), [0, 1, 2, 3])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_families_reject_non_finite_weights(bad):
    makes = (lambda: WeightedAdditiveQuadratic((1.0, bad), 0.5),
             lambda: WeightedAdditiveQuadratic((1.0, 2.0), bad),
             lambda: Modular((bad,)),
             lambda: Coverage((0b1, 0b10), (1.0, bad)),
             lambda: CutFunction(3, ((0, 1, 1.0), (1, 2, bad))))
    for make in makes:
        with pytest.raises(ValueError, match="must be finite"):
            make()


def test_families_reject_an_empty_ground_set():
    for make in (lambda: WeightedAdditiveQuadratic((), 0.5), lambda: Modular(()),
                 lambda: Coverage((), ()), lambda: CutFunction(0, ())):
        with pytest.raises(ValueError, match="ground set size"):
            make()


@given(cut_and_masks(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_cut_value_masks_chunks_equal_one_batch(case, seed):
    spec, _ = case
    edges = max(1, len(spec.edges))
    rows = np.random.default_rng(seed).random((5 * 3 + 2, spec.n)) < 0.5
    want = spec.value_masks(rows)
    # chunks of 3 rows (the last one 2 rows), then chunks of 1 row
    with pytest.MonkeyPatch.context() as mp:
        for cells in (3 * edges, 1):
            mp.setattr(setfn, "_CUT_CHUNK_CELLS", cells)
            got = spec.value_masks(rows)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    masks = [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little") for r in rows]
    assert [v.hex() for v in want.tolist()] == [cut_by_edge_loop(spec, m).hex() for m in masks]


def test_cut_value_masks_chunk_boundary_at_default_size():
    # an n=100 cut with about 2000 edges: 2 * step + 6 rows cross two chunk
    # boundaries at the default chunk size
    spec = random_cut(100, np.random.default_rng(5), 0.4)
    step = setfn._CUT_CHUNK_CELLS // len(spec.edges)
    rows = np.random.default_rng(6).random((2 * step + 6, 100)) < 0.5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(setfn, "_CUT_CHUNK_CELLS", len(rows) * len(spec.edges))
        whole = spec.value_masks(rows)
    assert spec.value_masks(rows).tobytes() == whole.tobytes()


# WAQ, `Modular` and `Coverage` add per-byte lookup tables: each table entry
# sums the weights of one byte's set bits from 0.0, and the entries add up
# from the low byte.  A loop over the bits in that grouping is the reference.

def weight_sum_by_bit_loop(mask, weights):
    total = 0.0
    for start in range(0, len(weights), 8):
        part = 0.0
        for i in range(start, min(start + 8, len(weights))):
            if (mask >> i) & 1:
                part += weights[i]
        total += part
    return total


def value_by_bit_loop(spec, mask):
    if isinstance(spec, WeightedAdditiveQuadratic):
        k = mask.bit_count()
        return weight_sum_by_bit_loop(mask, spec.weights) - spec.cost * k * k
    if isinstance(spec, Modular):
        return weight_sum_by_bit_loop(mask, spec.weights)
    covered = 0
    for i in range(spec.n):
        if (mask >> i) & 1:
            covered |= spec.covers[i]
    return weight_sum_by_bit_loop(covered, spec.item_weights)


@st.composite
def byte_table_family_and_masks(draw):
    n = draw(st.integers(1, 100))
    weights = st.floats(-5, 5, allow_nan=False)
    kind = draw(st.sampled_from(["waq", "modular", "coverage"]))
    if kind == "coverage":
        items = draw(st.integers(1, 100))
        spec = Coverage(tuple(draw(st.lists(st.integers(0, (1 << items) - 1),
                                            min_size=n, max_size=n))),
                        tuple(draw(st.lists(weights, min_size=items, max_size=items))))
    else:
        w = tuple(draw(st.lists(weights, min_size=n, max_size=n)))
        spec = (WeightedAdditiveQuadratic(w, draw(st.floats(0, 1))) if kind == "waq"
                else Modular(w))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
    return spec, masks + [0, (1 << n) - 1]


@given(byte_table_family_and_masks())
@settings(max_examples=200, deadline=None)
def test_byte_table_families_match_a_bit_loop(case):
    spec, masks = case
    got = [spec.value_mask(m).hex() for m in masks]
    assert got == [value_by_bit_loop(spec, m).hex() for m in masks]


@given(st.lists(st.one_of(st.just(-0.0), st.floats(-5, 5, allow_nan=False)),
                min_size=1, max_size=70))
@settings(max_examples=200, deadline=None)
def test_byte_sum_tables_match_a_bit_loop(weights):
    # Python floats with the same bits, -0.0 and a partial last byte included
    got = setfn._byte_sum_tables(tuple(weights))
    want = byte_sum_tables_by_bit_loop(tuple(weights))
    assert all(type(v) is float for table in got for v in table)
    assert [[v.hex() for v in t] for t in got] == [[v.hex() for v in t] for t in want]


# `evaluate_masks` (the `Coverage` and cut numpy batches, the per-row loop
# of WAQ and `Modular`) must equal `value_mask` of each row bit for bit.

@st.composite
def family_and_rows(draw):
    case = draw(st.one_of(byte_table_family_and_masks(), cut_and_masks()))
    spec, masks = case
    return spec, rows_of(masks, spec.n)


def test_coverage_with_no_items_or_uncovering_elements():
    for spec in (Coverage((0, 0, 0), ()), Coverage((0,) * 9, (1.5,) * 9),
                 Coverage((0b1,), (2.0,))):
        masks = list(range(min(1 << spec.n, 64))) + [(1 << spec.n) - 1]
        got = evaluate_masks(spec, rows_of(masks, spec.n))
        assert [v.hex() for v in got.tolist()] == [spec.value_mask(m).hex() for m in masks]


@given(family_and_rows())
@settings(max_examples=200, deadline=None)
def test_evaluate_masks_equals_value_mask(case):
    spec, rows = case
    masks = [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little")
             for r in rows]
    got = evaluate_masks(spec, rows)
    assert got.shape == (len(masks),) and got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [spec.value_mask(m).hex() for m in masks]
    assert evaluate_masks(spec, rows[:0]).shape == (0,)
