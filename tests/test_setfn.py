import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisysubmax import sets, setfn
from noisysubmax.matroids import UniformMatroid
from noisysubmax.random_instances import (random_coverage, random_cut,
                                          random_submodular, random_waq)
from noisysubmax.sets import (ElementSet, GroundSet, all_mask_rows, mask_rows,
                              pack_rows, row_masks)
from noisysubmax.setfn import (Coverage, CutFunction, Modular,
                               WeightedAdditiveQuadratic, brute_force_opt,
                               check_submodular, evaluate, evaluate_mask,
                               multilinear_exact, table_is_submodular,
                               value_table)

from reference import (CHUNK_PEAK, byte_fold_by_loop, byte_sum_tables_by_bit_loop,
                       cut_crossing_by_edge_loop, memory_families, multilinear_partial_exact,
                       peak_beyond_output)


def naive_value(spec, members):
    # `Modular` is a WAQ with cost 0
    if isinstance(spec, WeightedAdditiveQuadratic):
        return sum(spec.weights[i] for i in members) - spec.cost * len(members) ** 2
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
        check_submodular(Modular((0.0,) * 21))


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


# evaluate_mask rejects a negative mask and a bit at n or above, also one
# past the last mask byte, with one ValueError for every family.
@pytest.mark.parametrize("mask", [1 << 10, (1 << 10) | 1, 1 << 15, 1 << 16, 1 << 100,
                                  -1, -(1 << 70)])
def test_evaluate_mask_rejects_masks_outside_the_ground_set(mask):
    rng = np.random.default_rng(12)
    specs = (random_waq(10, rng), Modular(tuple(rng.uniform(-2.0, 2.0, size=10).tolist())),
             random_coverage(10, rng), random_cut(10, rng))
    for spec in specs:
        with pytest.raises(ValueError, match="ground set of size 10"):
            evaluate_mask(spec, mask)
        assert evaluate_mask(spec, (1 << 10) - 1) == spec.value_mask((1 << 10) - 1)


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


def test_cut_vertex_count_must_be_an_integer():
    with pytest.raises(TypeError):
        CutFunction(3.0, ())
    n = CutFunction(np.int64(3), ((0, 2, 1.0),)).n_vertices
    assert type(n) is int and n == 3


def test_cut_edge_endpoints_must_be_integers():
    # before, the first edge was built and its first query raised, and the
    # self-loop, never queried, was written to an instance file that could
    # not be read back
    for edge in ((0, 1.0, 2.0), (2.0, 2.0, 1.0)):
        with pytest.raises(TypeError):
            CutFunction(3, (edge,))


def test_coverage_takes_numpy_covers_as_ints():
    covers = np.array([0b011, 0b100, 0b110], dtype=np.int64)
    spec = Coverage(covers=tuple(covers), item_weights=(1.0, 2.0, 3.0))
    assert all(type(c) is int for c in spec.covers)
    want = Coverage(covers=(0b011, 0b100, 0b110), item_weights=(1.0, 2.0, 3.0))
    assert [evaluate_mask(spec, m) for m in range(8)] == [evaluate_mask(want, m) for m in range(8)]
    assert spec.value_masks(all_mask_rows(3)).tobytes() == value_table(want).tobytes()


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
# of packed rows must both equal the byte-order reference `value_by_bit_loop`
# bit for bit (the crossing edges found by an edge loop, their weights added
# byte by byte), with n up to 130 so that masks span more than 64 bits.

def assert_batch_matches_scalar(spec, masks):
    got = spec.value_masks(mask_rows(masks, spec.n))
    assert got.shape == (len(masks),)
    want = [float(spec.value_mask(m)) for m in masks]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert [v.hex() for v in want] == [value_by_bit_loop(spec, m).hex() for m in masks]


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
    assert no_edges.value_masks(mask_rows(masks, 70)).tolist() == [0.0] * len(masks)
    assert messy.value_masks(mask_rows([], 70)).shape == (0,)
    # a byte sum starts from 0.0, so a lone -0.0 weight adds up to 0.0
    assert_batch_matches_scalar(CutFunction(2, ((0, 1, -0.0),)), [0, 1, 2, 3])


@st.composite
def wide_cut_and_masks(draw):
    """A cut with n up to 130 and up to about 600 edges, with self-loops,
    parallel edges and negative and signed-zero weights (or no edges at
    all), and masks that include the empty and the full set."""
    n, count = draw(st.integers(1, 130)), draw(st.integers(0, 550))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    ends = rng.integers(n, size=(count, 2))
    loops = rng.random(count) < 0.05
    ends[loops, 1] = ends[loops, 0]
    weights = rng.uniform(-5.0, 5.0, size=count)
    zeros = rng.random(count) < 0.05
    weights[zeros] = np.where(rng.random(count) < 0.5, 0.0, -0.0)[zeros]
    edges = [(int(u), int(v), float(w)) for (u, v), w in zip(ends, weights)]
    # a parallel copy of some edges, each at a random place
    for e in rng.integers(max(count, 1), size=count // 10):
        edges.insert(int(rng.integers(len(edges) + 1)), edges[e])
    masks = [0, (1 << n) - 1] + [int.from_bytes(rng.bytes((n + 7) // 8), "little")
                                 & ((1 << n) - 1) for _ in range(10)]
    return CutFunction(n, tuple(edges)), masks


@given(wide_cut_and_masks())
@settings(max_examples=150, deadline=None)
def test_cut_value_mask_equals_the_edge_loop(case):
    spec, masks = case
    assert_batch_matches_scalar(spec, masks)


def test_cut_value_mask_adds_in_edge_order():
    # a star whose 16 edges all cross at {0}: 2^53, then 15 ones.  Edges
    # 0-7 add in edge order to 2^53 (each 1 rounds away), edges 8-15 to 8.0,
    # and the byte sums add to 2^53 + 8.  Added one edge at a time the total
    # would be 2^53; np.sum adds pairwise, to 2^53 + 14.  The self-loop at 0
    # (edge 16) never crosses.
    edges = ((0, 1, 2.0 ** 53),) + tuple((0, v, 1.0) for v in range(2, 17)) + ((0, 0, 1.0),)
    spec = CutFunction(17, edges)
    assert spec.value_mask(1) == 2.0 ** 53 + 8 == value_by_bit_loop(spec, 1)
    assert spec.value_masks(mask_rows([1], 17)).tolist() == [2.0 ** 53 + 8]


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


def test_family_weights_are_python_floats():
    # numpy weights made a WAQ unhashable, its == raise "truth value ... is
    # ambiguous" and its optimum an np.float64
    waq = WeightedAdditiveQuadratic(np.array([3.0, 1.0, 2.0]), np.float64(0.5))
    assert waq == WeightedAdditiveQuadratic((3.0, 1.0, 2.0), 0.5)
    assert hash(waq) == hash(WeightedAdditiveQuadratic((3.0, 1.0, 2.0), 0.5))
    assert type(waq.cost) is float and all(type(w) is float for w in waq.weights)
    assert type(waq.optimum()[1]) is float and type(waq.value_mask(0b101)) is float
    modular = Modular(np.array([1.5, -2.0]))
    assert modular.weights == (1.5, -2.0) and type(modular.weights[0]) is float
    cover = Coverage((0b1, 0b11), np.array([1.0, 2.5], dtype=np.float32))
    assert cover.item_weights == (1.0, 2.5) and type(cover.item_weights[0]) is float
    cut = CutFunction(3, ((0, 1, np.float64(1.25)), (1, 2, 2)))
    assert cut.edges == ((0, 1, 1.25), (1, 2, 2.0))
    assert all(type(w) is float for _, _, w in cut.edges)
    for make in (lambda: Modular(("1.0",)), lambda: Coverage((0b1,), ("1.0",)),
                 lambda: CutFunction(2, ((0, 1, "1.0"),))):
        with pytest.raises(TypeError):
            make()


def test_families_reject_an_empty_ground_set():
    for make in (lambda: WeightedAdditiveQuadratic((), 0.5), lambda: Modular(()),
                 lambda: Coverage((), ()), lambda: CutFunction(0, ())):
        with pytest.raises(ValueError, match="ground set size"):
            make()


# Every family adds per-byte lookup tables: each table entry sums the
# weights of one byte's set bits (elements, covered items or crossing edges)
# from 0.0, and the entries add up from the low byte.  A loop over the bits
# in that grouping is the reference.

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
    if isinstance(spec, CutFunction):
        return weight_sum_by_bit_loop(cut_crossing_by_edge_loop(spec, mask),
                                      [w for _, _, w in spec.edges])
    covered = 0
    for i in range(spec.n):
        if (mask >> i) & 1:
            covered |= spec.covers[i]
    return weight_sum_by_bit_loop(covered, spec.item_weights)


@st.composite
def byte_table_family_and_masks(draw):
    kind = draw(st.sampled_from(["waq", "modular", "coverage", "cut"]))
    if kind == "cut":
        spec, masks = draw(cut_and_masks())
        return spec, masks + [0, (1 << spec.n) - 1]
    n = draw(st.integers(1, 100))
    weights = st.floats(-5, 5, allow_nan=False)
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
    assert all(type(spec.value_mask(m)) is float for m in masks)
    got = [spec.value_mask(m).hex() for m in masks]
    assert got == [value_by_bit_loop(spec, m).hex() for m in masks]


# Up to 8 * `_TUPLE_ROWS` = 128 weights the one-set rows are tuples, above
# it memoryviews; the sizes reach both sides and the edge between them.
_BYTE_TABLE_SIZES = st.one_of(st.integers(1, 70), st.sampled_from((127, 128, 129, 136)))


@given(_BYTE_TABLE_SIZES.flatmap(lambda size: st.lists(
    st.one_of(st.just(-0.0), st.floats(-5, 5, allow_nan=False)), min_size=size, max_size=size)))
@settings(max_examples=200, deadline=None)
def test_byte_sum_tables_match_a_bit_loop(weights):
    # Python floats with the same bits, -0.0 and a partial last byte included
    got = setfn._ByteTables(tuple(weights)).tables
    want = byte_sum_tables_by_bit_loop(tuple(weights))
    row = tuple if len(weights) <= 8 * setfn._TUPLE_ROWS else memoryview
    assert all(type(table) is row for table in got)
    assert all(type(v) is float for table in got for v in table)
    assert [[v.hex() for v in t] for t in got] == [[v.hex() for v in t] for t in want]


@pytest.mark.parametrize("size", [128, 129])
def test_families_on_both_row_kinds_survive_pickle_and_deepcopy(size):
    # a WAQ over `size` weights and a cut with `size` edges (a -0.0 weight
    # and a self-loop among them) on each side of the tuple-row threshold
    rng = np.random.default_rng(size)
    weights = rng.uniform(-3.0, 3.0, size=size).tolist()
    weights[5] = -0.0
    ends = rng.integers(0, 40, size=(size, 2)).tolist()
    ends[7] = [3, 3]
    specs = (WeightedAdditiveQuadratic(tuple(weights), 0.01),
             CutFunction(40, tuple((u, v, w) for (u, v), w in zip(ends, weights))))
    row = tuple if size <= 8 * setfn._TUPLE_ROWS else memoryview
    for spec in specs:
        rows = pack_rows(rng.random((64, spec.n)) < 0.5)
        masks = row_masks(rows)
        want = [v.hex() for v in spec.value_masks(rows).tolist()]
        assert [spec.value_mask(m).hex() for m in masks] == want
        assert all(type(table) is row for table in spec._tables.tables)
        for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert all(type(table) is row for table in twin._tables.tables)
            assert [twin.value_mask(m).hex() for m in masks] == want
            assert [v.hex() for v in twin.value_masks(rows).tolist()] == want


def test_a_queried_family_pickles_as_its_fields():
    # its tables are rebuilt on first use, not written out
    rng = np.random.default_rng(5)
    for make in (lambda: random_waq(10, np.random.default_rng(1)),
                 lambda: Modular((1.0, -2.0, 0.5)),
                 lambda: random_coverage(10, np.random.default_rng(2)),
                 lambda: random_cut(10, np.random.default_rng(3))):
        fresh, queried = make(), make()
        queried.value_mask(0b101)
        queried.value_masks(pack_rows(rng.random((4, queried.n)) < 0.5))
        assert pickle.dumps(queried) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(queried)) == fresh


# The one-set sums and incidence combines are generated byte folds
# (`setfn._byte_fold`); the loop over a mask's bytes that they replaced is
# the reference, on float rows whose sums round, cancel or overflow and on
# int rows wider than a machine word.

_FOLD_FLOATS = st.one_of(st.sampled_from((-0.0, 0.0, 1e300, -1e300, 5e-324)),
                         st.floats(-1e300, 1e300, allow_nan=False))


@st.composite
def byte_fold_case(draw):
    """(op, start, rows, masks): `width` 256-entry rows whose entries come
    from a drawn pool, and masks over `width` bytes."""
    op = draw(st.sampled_from("+|^"))
    width = draw(st.integers(0, 40))
    values = _FOLD_FLOATS if op == "+" else st.integers(0, 1 << 200)
    pool = draw(st.lists(values, min_size=1, max_size=12))
    picks = np.random.default_rng(draw(st.integers(0, 2**32))).integers(
        len(pool), size=(width, 256)).tolist()
    rows = [tuple(pool[j] for j in row) for row in picks]
    masks = draw(st.lists(st.integers(0, (1 << 8 * width) - 1), max_size=8))
    return op, 0.0 if op == "+" else 0, rows, masks + [0, (1 << 8 * width) - 1]


def fold_bits(value) -> str:
    return value.hex() if type(value) is float else hex(value)


@given(byte_fold_case())
@settings(max_examples=300, deadline=None)
def test_byte_fold_matches_the_byte_loop(case):
    op, start, rows, masks = case
    want = [fold_bits(byte_fold_by_loop(rows, op, start, m)) for m in masks]
    # float rows are read as tuples and, above `_TUPLE_ROWS`, as memoryviews
    kinds = [rows] + ([[memoryview(np.array(row)) for row in rows]] if op == "+" else [])
    for kind in kinds:
        fold = setfn._byte_fold(len(rows), op, repr(start))(*kind)
        got = [fold(m) for m in masks]
        assert all(type(v) is type(start) for v in got)
        assert [fold_bits(v) for v in got] == want


def test_byte_fold_compiles_past_the_one_expression_limit():
    # one left-nested expression of 3000 terms fails to compile on CPython
    # 3.11; the fold adds at most `_FOLD_TERMS` per statement
    width = 3000
    rows = [tuple(float(c * (b % 7 - 3)) for c in range(256)) for b in range(width)]
    fold = setfn._byte_fold(width, "+", "0.0")(*rows)
    rng = np.random.default_rng(30)
    for mask in [0, (1 << 8 * width) - 1] + [int(rng.integers(1 << 62)) << int(rng.integers(8 * width))
                                             for _ in range(8)]:
        assert fold(mask).hex() == byte_fold_by_loop(rows, "+", 0.0, mask).hex()


def test_wide_families_one_set_equals_batch():
    # a dense n=100 cut (about 2475 edges, 310 edge bytes) and a coverage of
    # 2000 items (250 item bytes) fold more terms than one statement holds
    rng = np.random.default_rng(31)
    cut, cover = random_cut(100, rng), random_coverage(40, rng, items=2000)
    assert len(cut._tables.tables) > 300 and len(cover._tables.tables) == 250
    for spec in (cut, cover):
        rows = pack_rows(rng.random((24, spec.n)) < rng.random((24, 1)))
        rows = np.concatenate([rows, mask_rows([0, (1 << spec.n) - 1], spec.n)])
        masks = row_masks(rows)
        want = [v.hex() for v in spec.value_masks(rows).tolist()]
        assert [spec.value_mask(m).hex() for m in masks] == want
        assert [value_by_bit_loop(spec, m).hex() for m in masks[:6]] == want[:6]


# A family's batch works on `sets.CHUNK_BYTES` // (bytes per row) rows at a
# time: 8 per summed byte (mask, item or edge bytes) for the float gather of
# `_ByteTables.sum_rows`, and 16 more for a WAQ's member count and cost term.

def batch_row_bytes(spec) -> int:
    return spec._tables.row_bytes + (16 if isinstance(spec, WeightedAdditiveQuadratic) else 0)


@given(byte_table_family_and_masks(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_cut_value_masks_chunks_equal_one_batch(case, seed):
    spec, _ = case
    rows = pack_rows(np.random.default_rng(seed).random((5 * 3 + 2, spec.n)) < 0.5)
    want = spec.value_masks(rows)
    # chunks of 3 rows (the last one 2 rows), then chunks of 1 row
    with pytest.MonkeyPatch.context() as mp:
        for chunk_bytes in (3 * batch_row_bytes(spec), 1):
            mp.setattr(sets, "CHUNK_BYTES", chunk_bytes)
            got = spec.value_masks(rows)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert [v.hex() for v in want.tolist()] == [value_by_bit_loop(spec, m).hex()
                                                for m in row_masks(rows)]


def test_cut_value_masks_chunk_boundary_at_default_size():
    # 2 * step + 6 rows cross two chunk boundaries at the default chunk size:
    # an n=100 cut with about 2000 edges (248 edge bytes), a coverage of 200
    # items, and WAQ and `Modular` over 13 mask bytes
    rng = np.random.default_rng(5)
    specs = (random_cut(100, rng, 0.4), random_coverage(100, rng),
             random_waq(100, rng), Modular(tuple(rng.uniform(-3.0, 3.0, size=100).tolist())))
    for spec in specs:
        step = sets.CHUNK_BYTES // batch_row_bytes(spec)
        rows = pack_rows(np.random.default_rng(6).random((2 * step + 6, 100)) < 0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sets, "CHUNK_BYTES", len(rows) * batch_row_bytes(spec))
            whole = spec.value_masks(rows)
        assert spec.value_masks(rows).tobytes() == whole.tobytes()


def test_batch_memory_stays_within_one_chunk():
    # a batch combines, counts and sums one chunk of rows at a time, so over
    # all 2^16 rows its peak beyond the 512 KiB of sums stays within one
    # chunk (cut and coverage about 276 KiB, WAQ and `Modular` 228 KiB);
    # combining the whole batch first took 1.6 MiB on this cut (15 edge
    # bytes) and 2.9 MiB on this coverage (25 item bytes), and counting the
    # WAQ's members over the whole batch 1.1 MiB
    rows = all_mask_rows(16)
    for spec in memory_families(16, np.random.default_rng(23)):
        assert peak_beyond_output(spec.value_masks, rows) < CHUNK_PEAK, type(spec).__name__


def test_value_table_of_a_dense_n20_cut_peaks_under_16_mib():
    # 8 MiB of values and 4 MiB of packed rows (the low bytes of one 2^20
    # uint32 arange); one boolean column per element took 28.3 MiB on the
    # cut, and counting members over the whole batch 28.1 MiB on the WAQ
    for spec in (random_cut(20, np.random.default_rng(24), 1.0),
                 random_waq(20, np.random.default_rng(24))):
        spec.value_masks(all_mask_rows(1))  # build the tables outside the trace
        tracemalloc.start()
        try:
            table = value_table(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024, type(spec).__name__
        masks = [0, 1, (1 << 20) - 1, 0x5A5A5, 1 << 19]
        assert [table[m].hex() for m in masks] == [spec.value_mask(m).hex() for m in masks]


# `value_masks` (each family's numpy batch) must equal `value_mask` of
# each row bit for bit, with n up to 130, a multiple of 8 or not.

finite_or_signed_zero = st.one_of(st.just(-0.0), st.just(0.0),
                                  st.floats(-5, 5, allow_nan=False))


@st.composite
def additive_family(draw, max_n):
    # WAQ or `Modular`, negative weights and costs and signed zeros included
    n = draw(st.integers(1, max_n))
    w = tuple(draw(st.lists(finite_or_signed_zero, min_size=n, max_size=n)))
    if draw(st.booleans()):
        return Modular(w)
    return WeightedAdditiveQuadratic(w, draw(finite_or_signed_zero))


@st.composite
def additive_and_masks(draw):
    # up to 130 elements: masks of three 64-bit words
    spec = draw(additive_family(130))
    masks = draw(st.lists(st.integers(0, (1 << spec.n) - 1), max_size=12))
    return spec, masks + [0, (1 << spec.n) - 1]


@st.composite
def family_and_rows(draw):
    case = draw(st.one_of(additive_and_masks(), byte_table_family_and_masks()))
    spec, masks = case
    return spec, mask_rows(masks, spec.n)


def test_coverage_with_no_items_or_uncovering_elements():
    for spec in (Coverage((0, 0, 0), ()), Coverage((0,) * 9, (1.5,) * 9),
                 Coverage((0b1,), (2.0,))):
        masks = list(range(min(1 << spec.n, 64))) + [(1 << spec.n) - 1]
        got = spec.value_masks(mask_rows(masks, spec.n))
        assert [v.hex() for v in got.tolist()] == [spec.value_mask(m).hex() for m in masks]


# packed rows whose last byte is whole (n = 8, 64) as well as partial
@given(family_and_rows())
@example((Modular((1.5, -2.0, 0.25, -0.0, 3.0, 1e-3, -7.5, 2.0)), mask_rows([0, 0x81, 0xFF], 8)))
@example((random_cut(64, np.random.default_rng(1)), mask_rows([0, 1 << 63, (1 << 64) - 1], 64)))
@settings(max_examples=200, deadline=None)
def test_value_masks_equals_value_mask(case):
    spec, rows = case
    masks = row_masks(rows)
    got = spec.value_masks(rows)
    assert got.shape == (len(masks),) and got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [spec.value_mask(m).hex() for m in masks]
    assert spec.value_masks(rows[:0]).shape == (0,)


# Every table is its family's batch over all 2^n rows, so it must equal
# `value_mask` on every mask, sign bits included, and the byte-order
# reference.


@st.composite
def small_cut(draw):
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, finite_or_signed_zero), max_size=40))
    return CutFunction(n, tuple(edges))


@st.composite
def small_coverage(draw):
    n = draw(st.integers(1, 10))
    items = draw(st.integers(0, 16))
    covers = draw(st.lists(st.one_of(st.just(0), st.integers(0, (1 << items) - 1)),
                           min_size=n, max_size=n))
    weights = draw(st.lists(finite_or_signed_zero, min_size=items, max_size=items))
    return Coverage(tuple(covers), tuple(weights))


@given(small_cut())
@settings(max_examples=200, deadline=None)
def test_cut_table_equals_the_edge_loop(spec):
    assert value_table(spec).tobytes() == table_by_bit_loop(spec).tobytes()


def table_by_value_mask(spec) -> np.ndarray:
    return np.array([spec.value_mask(mask) for mask in range(1 << spec.n)])


def table_by_bit_loop(spec) -> np.ndarray:
    return np.array([value_by_bit_loop(spec, mask) for mask in range(1 << spec.n)])


@given(st.one_of(additive_family(10), small_coverage(), small_cut()))
@settings(max_examples=300, deadline=None)
def test_table_equals_value_mask_for_every_family(spec):
    assert value_table(spec).tobytes() == table_by_value_mask(spec).tobytes()


def test_tables_equal_the_replaced_formulas_on_fixed_cases():
    # a lone negative weight that does not cross must read +0.0, as a byte
    # sum from 0.0 does; over two item bytes of random doubles, adding the
    # items byte by byte, as value_mask does, rounds differently from adding
    # them in item order, the order of the coverage table this batch replaced
    rng = np.random.default_rng(19)
    specs = [CutFunction(2, ((0, 1, -1.0),)), CutFunction(3, ((1, 1, -2.0),)),
             CutFunction(3, ()), Coverage((0, 0b10, 0b11), (-0.0, -1.5)), Coverage((0, 0), ())]
    for _ in range(3):
        specs += [random_coverage(10, rng, items=16), random_cut(10, rng)]
    for spec in specs:
        want = (table_by_bit_loop(spec) if isinstance(spec, CutFunction)
                else table_by_value_mask(spec))
        assert value_table(spec).tobytes() == want.tobytes()


def assert_table_matches_value_mask(spec, masks):
    table = value_table(spec)
    assert table.shape == (1 << spec.n,)
    for mask in masks:
        assert table[mask].hex() == evaluate_mask(spec, mask).hex()


def test_coverage_table_at_the_budget_with_40_items():
    rng = np.random.default_rng(17)
    spec = random_coverage(setfn.MULTILINEAR_BUDGET, rng)
    assert len(spec.item_weights) == 40
    masks = [0, (1 << spec.n) - 1] + [int(m) for m in rng.integers(1 << spec.n, size=200)]
    assert_table_matches_value_mask(spec, masks)


def test_coverage_table_with_more_items_than_a_word():
    spec = random_coverage(12, np.random.default_rng(18), items=70)
    assert_table_matches_value_mask(spec, range(1 << 12))


# The batch sum adds byte by byte over whole rows from `_TERMWISE_ROWS` rows
# up and accumulates along each row below; both must make the additions of
# the one-set loop over a row's bytes.  The row counts reach one row and
# both sides of the crossover.

def sum_rows_counts():
    cross = setfn._TERMWISE_ROWS
    return st.sampled_from((1, cross - 1, cross, cross + 1, 3 * cross + 5))


@given(st.integers(0, 30), sum_rows_counts(), st.lists(_FOLD_FLOATS, min_size=1, max_size=8),
       st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_sum_rows_equals_the_byte_loop_on_both_sides_of_the_crossover(width, count, pool, seed):
    # table entries of -0.0, 5e-324 and ±1e300, whose sums cancel, round
    # and overflow; a family's own tables never hold -0.0, so the entries
    # are written into the array that `sum_rows` reads
    rng = np.random.default_rng(seed)
    tables = setfn._ByteTables((0.0,) * 8 * width)
    tables.array[...] = np.array(pool)[rng.integers(len(pool), size=tables.array.shape)]
    rows = rng.integers(256, size=(count, width), dtype=np.uint8)
    entries = tables.array.tolist()
    want = [byte_fold_by_loop(entries, "+", 0.0, m).hex() for m in row_masks(rows)]
    got = tables.sum_rows(rows)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert [v.hex() for v in got.tolist()] == want


@st.composite
def weighted_family_and_rows(draw, kinds=("modular", "coverage", "cut")):
    """A `Modular`, coverage or cut whose weights come from a pool with
    -0.0, 5e-324 and ±1e300, and packed rows over it, as many as
    `sum_rows_counts` draws."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    pool = draw(st.lists(_FOLD_FLOATS, min_size=1, max_size=8))
    n = draw(st.integers(1, 48))

    def weights(size):
        return tuple(pool[j] for j in rng.integers(len(pool), size=size).tolist())
    if kind == "modular":
        spec = Modular(weights(n))
    elif kind == "coverage":
        items = draw(st.integers(0, 120))
        covers = row_masks(pack_rows(rng.random((n, items)) < 0.3))
        spec = Coverage(tuple(covers), weights(items))
    else:
        ends = rng.integers(n, size=(draw(st.integers(0, 150)), 2)).tolist()
        spec = CutFunction(n, tuple((u, v, w) for (u, v), w in zip(ends, weights(len(ends)))))
    count = draw(sum_rows_counts())
    return spec, pack_rows(rng.random((count, n)) < rng.random((count, 1)))


@given(weighted_family_and_rows())
@settings(max_examples=150, deadline=None)
def test_family_batches_equal_the_one_set_fold_on_both_sides_of_the_crossover(case):
    spec, rows = case
    tables = spec._tables
    summed = rows if isinstance(spec, Modular) else spec._combined_rows(rows)
    want = [byte_fold_by_loop(tables.tables, "+", 0.0, m).hex() for m in row_masks(summed)]
    assert [v.hex() for v in tables.sum_rows(summed).tolist()] == want
    got = spec.value_masks(rows)
    assert [v.hex() for v in got.tolist()] == [spec.value_mask(m).hex() for m in row_masks(rows)]


@given(weighted_family_and_rows(("coverage", "cut")))
@settings(max_examples=100, deadline=None)
def test_combined_rows_equal_the_one_set_fold(case):
    # the OR or XOR of whole incidence-table rows per element byte, against
    # the int fold of one mask
    spec, rows = case
    combined = spec._combined_rows(rows)
    items = len(spec._item_weights())
    assert combined.dtype == np.uint8 and combined.shape == (len(rows), (items + 7) // 8)
    assert row_masks(combined) == [spec._items_mask(m) for m in row_masks(rows)]


@pytest.mark.parametrize("width", [1, 5, 24])
def test_sum_rows_keeps_its_row_bytes(width):
    # above the crossover a row keeps one 8-byte flat index and one 8-byte
    # float per summed byte, and `row_bytes` counts both; the bound leaves
    # 1 KiB for the arrays' headers
    tables = setfn._ByteTables(tuple(np.random.default_rng(width).random(8 * width).tolist()))
    assert tables.row_bytes == 16 * width
    rows = np.random.default_rng(0).integers(256, size=(4096, width), dtype=np.uint8)
    assert peak_beyond_output(tables.sum_rows, rows) <= len(rows) * tables.row_bytes + 1024
