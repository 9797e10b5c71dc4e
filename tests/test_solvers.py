from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax import solvers
from noisysubmax.matroids import (ContractedMatroid, PartitionMatroid, UniformMatroid,
                                  contract, is_independent, max_weight_independent_set)
from noisysubmax.meta import MetaConfig, best_of_T, comparison_surrogate_f0, meta_solve
from noisysubmax.noise import BoundedUniform, Gaussian, NoiseSpec, PersistentNoisyOracle
from noisysubmax.oracles import ExactOracle
from noisysubmax.random_instances import (random_coverage, random_cut,
                                          random_submodular, random_waq)
from noisysubmax.sets import ElementSet, GroundSet, mask_rows
from noisysubmax.setfn import (MULTILINEAR_BUDGET, Modular, brute_force_opt, evaluate,
                               multilinear_exact)
from noisysubmax.solvers import (DoubleGreedy, Greedy, MeasuredContinuousGreedy,
                                 RandomSubset, _exact_partials,
                                 double_greedy, greedy_cardinality,
                                 measured_continuous_greedy, pipage_round,
                                 run_solver)
from noisysubmax.surrogate import SampledSurrogateOracle, SurrogateConfig

from reference import (PerturbedOracle, RecordingOracle, greedy_by_single_queries,
                       multilinear_partial_exact)


def test_greedy_modular_example():
    spec = Modular(weights=(3.0, 1.0, 2.0))
    m = UniformMatroid(GroundSet(3), 2)
    s = greedy_cardinality(ExactOracle(spec), m)
    assert sorted(s) == [0, 2]


def test_greedy_coverage_guarantee():
    rng = np.random.default_rng(1)
    for _ in range(5):
        spec = random_coverage(10, rng)
        m = UniformMatroid(GroundSet(10), 3)
        s = greedy_cardinality(ExactOracle(spec), m)
        _, opt = brute_force_opt(spec, m)
        assert evaluate(spec, s) >= (1 - 1 / np.e) * opt - 1e-9


def test_greedy_zero_noise_matches_exact():
    rng = np.random.default_rng(2)
    spec = random_coverage(9, rng)
    m = UniformMatroid(GroundSet(9), 4)
    noisy = PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.0)), 5)
    a = greedy_cardinality(ExactOracle(spec), m)
    b = greedy_cardinality(noisy, m)
    assert a.mask == b.mask


def test_double_greedy_modular_deterministic():
    spec = Modular(weights=(4.0, -2.0, 3.0))
    g = GroundSet(3)
    for seed in range(10):
        s = double_greedy(ExactOracle(spec), g, np.random.default_rng(seed))
        assert sorted(s) == [0, 2]


def test_double_greedy_half_guarantee():
    rng = np.random.default_rng(3)
    for _ in range(4):
        spec = random_submodular(10, rng)
        _, opt = brute_force_opt(spec)
        oracle = ExactOracle(spec)
        g = GroundSet(10)
        vals = np.array([
            evaluate(spec, double_greedy(oracle, g, rng)) for _ in range(400)
        ])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert vals.mean() >= 0.5 * opt - 3 * se


def test_double_greedy_matroid_aware_stays_independent():
    rng = np.random.default_rng(4)
    g = GroundSet(10)
    m = UniformMatroid(g, 4)
    for _ in range(30):
        spec = random_submodular(10, rng)
        universe = g.full_set()
        s = double_greedy(ExactOracle(spec), g, rng, universe=universe, matroid=m)
        assert len(s) <= 4


def test_double_greedy_respects_universe():
    rng = np.random.default_rng(5)
    spec = random_submodular(8, rng)
    g = GroundSet(8)
    universe = g.subset([1, 3, 5])
    for _ in range(20):
        s = double_greedy(ExactOracle(spec), g, rng, universe=universe)
        assert s.issubset(universe)


def test_mcg_config_validation():
    with pytest.raises(ValueError):
        MeasuredContinuousGreedy(step=0.3)
    with pytest.raises(ValueError):
        MeasuredContinuousGreedy(step=0.01, partial_samples=0)
    MeasuredContinuousGreedy(step=0.05)


def test_mcg_partial_samples_must_be_an_integer():
    with pytest.raises(TypeError):
        MeasuredContinuousGreedy(step=0.1, partial_samples=2.0)
    samples = MeasuredContinuousGreedy(step=0.1, partial_samples=np.int64(4)).partial_samples
    assert type(samples) is int and samples == 4


def test_random_subset_size_must_be_an_integer():
    # a float size once kept every element: 2.5 never equals a count
    with pytest.raises(TypeError):
        RandomSubset(2.5)
    size = RandomSubset(np.int64(3)).size
    assert type(size) is int and size == 3


def test_mcg_modular_concentrates_on_top_r():
    # direction weights are (1 - x_i) w_i, so the top-r set stays selected
    # for the whole unit horizon iff min selected w > e * max unselected w
    w = (50.0, 1.0, 40.0, 0.5, 3.0)
    spec = Modular(weights=w)
    m = UniformMatroid(GroundSet(5), 2)
    cfg = MeasuredContinuousGreedy(step=0.01, exact_extension=True)
    x = measured_continuous_greedy(ExactOracle(spec), m, cfg, np.random.default_rng(0))
    target = 1.0 - (1.0 - 0.01) ** 100
    assert x[0] == pytest.approx(target, abs=1e-9)
    assert x[2] == pytest.approx(target, abs=1e-9)
    assert x[1] == x[3] == x[4] == 0.0


def test_mcg_monotone_coverage_guarantee():
    rng = np.random.default_rng(7)
    spec = random_coverage(9, rng)
    m = UniformMatroid(GroundSet(9), 3)
    cfg = MeasuredContinuousGreedy(step=1 / 200, exact_extension=True)
    x = measured_continuous_greedy(ExactOracle(spec), m, cfg, rng)
    _, opt = brute_force_opt(spec, m)
    assert multilinear_exact(spec, x) >= (1 - 1 / np.e - 0.03) * opt
    assert np.all(x >= 0) and np.all(x <= 1)
    assert x.sum() <= 3 + 1e-9


def test_mcg_sampled_mode_runs():
    rng = np.random.default_rng(8)
    spec = random_coverage(8, rng)
    m = UniformMatroid(GroundSet(8), 3)
    cfg = MeasuredContinuousGreedy(step=0.1, partial_samples=8)
    x = measured_continuous_greedy(ExactOracle(spec), m, cfg, rng)
    assert np.all(x >= 0) and np.all(x <= 1)
    assert x.sum() <= 3 + 1e-9


@given(st.integers(0, 2), st.integers(1, 100), st.sampled_from([0.25, 0.1]),
       st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_mcg_batch_path_matches_the_loop_path(family, n, step, samples, seed):
    """ExactOracle answers each step's sampled sets in one vectorised batch
    (in chunks on a cut); PerturbedOracle(..., 0.0) answers them one query
    at a time."""
    spec = (random_waq, random_coverage, random_cut)[family](n, np.random.default_rng(seed))
    ground = GroundSet(n)
    m = PartitionMatroid(ground, parts=(ground.full_mask,), caps=(max(1, n // 3),))
    cfg = MeasuredContinuousGreedy(step=step, partial_samples=samples)
    exact = ExactOracle(spec)
    batched = measured_continuous_greedy(exact, m, cfg, np.random.default_rng(seed))
    looped = measured_continuous_greedy(PerturbedOracle(exact, 0.0), m, cfg,
                                        np.random.default_rng(seed))
    assert batched.tobytes() == looped.tobytes()


def sampled_weights_by_loop(oracle, m, cfg, rng):
    """The direction weights of each step of sampled measured continuous
    greedy, with one query per set and a Python sum: the reference for the
    batched solver."""
    n = oracle.ground.n
    x = np.zeros(n)
    out = []
    for _ in range(round(1.0 / cfg.step)):
        weights = np.zeros(n)
        for i in m.free_elements():
            total = 0.0
            for _ in range(cfg.partial_samples):
                mask = sum(1 << int(j) for j in np.flatnonzero(rng.random(n) < x))
                total += oracle.value_mask(mask | 1 << i) - oracle.value_mask(mask)
            weights[i] = total / cfg.partial_samples
        out.append(weights)
        x = x + cfg.step * (1.0 - x) * max_weight_independent_set(m, weights).indicator()
    return out


def test_mcg_sampled_weights_match_the_loop_reference(monkeypatch):
    # the default 32 samples: from 8 terms on, np.sum's pairwise order would
    # change the last bits of a weight, which x itself seldom shows
    rng = np.random.default_rng(13)
    spec = random_cut(30, rng, 0.3)
    m = PartitionMatroid(GroundSet(30), parts=(0x3FF, 0x3FF << 10, 0x3FF << 20), caps=(2, 3, 2))
    cfg = MeasuredContinuousGreedy(step=0.2)
    seen = []

    def recording(matroid, weights):
        seen.append(weights.copy())
        return max_weight_independent_set(matroid, weights)

    monkeypatch.setattr(solvers, "max_weight_independent_set", recording)
    measured_continuous_greedy(ExactOracle(spec), m, cfg, np.random.default_rng(5))
    want = sampled_weights_by_loop(ExactOracle(spec), m, cfg, np.random.default_rng(5))
    assert [w.tobytes() for w in seen] == [w.tobytes() for w in want]


def test_mcg_with_no_free_element():
    # every element pinned: the step's batch has no rows and draws nothing
    g = GroundSet(6)
    m = contract(UniformMatroid(g, 6), g.full_set())
    assert m.free_elements() == []
    exact = ExactOracle(random_cut(6, np.random.default_rng(4)))
    cfg = MeasuredContinuousGreedy(step=0.25, partial_samples=4)
    for oracle in (exact, PerturbedOracle(exact, 0.0)):
        rng = np.random.default_rng(3)
        x = measured_continuous_greedy(oracle, m, cfg, rng)
        assert x.tolist() == [0.0] * 6
        assert rng.random() == np.random.default_rng(3).random()


def test_second_partial_four_term_identity():
    rng = np.random.default_rng(9)
    spec = random_submodular(7, rng)
    x = rng.uniform(0.1, 0.9, size=7)
    i, j = 1, 4

    def at(xi, xj):
        y = x.copy()
        y[i], y[j] = xi, xj
        return multilinear_exact(spec, y)

    four_term = at(1, 1) - at(1, 0) - at(0, 1) + at(0, 0)
    eps = 1e-5
    yp = x.copy()
    yp[j] = min(x[j] + eps, 1.0)
    fd = (multilinear_partial_exact(spec, yp, i)
          - multilinear_partial_exact(spec, x, i)) / (yp[j] - x[j])
    assert fd == pytest.approx(four_term, abs=1e-4)


def test_perturbed_partials_within_2eps():
    rng = np.random.default_rng(10)
    spec = random_submodular(7, rng)
    exact = ExactOracle(spec)
    eps = 0.05
    perturbed = PerturbedOracle(exact, eps)
    x = rng.uniform(0.1, 0.9, size=7)
    all_sets = mask_rows(range(1 << 7), 7)
    pa = _exact_partials(exact.value_masks(all_sets), x)
    pb = _exact_partials(perturbed.value_masks(all_sets), x)
    assert np.max(np.abs(pa - pb)) <= 2 * eps + 1e-12


def test_pipage_integral_passthrough():
    g = GroundSet(6)
    m = UniformMatroid(g, 3)
    s = g.subset([0, 2, 5])
    out = pipage_round(m, s.indicator(), np.random.default_rng(0))
    assert out.mask == s.mask


def test_pipage_marginal_preservation_uniform():
    g = GroundSet(4)
    m = UniformMatroid(g, 2)
    x = np.full(4, 0.5)
    rng = np.random.default_rng(11)
    counts = np.zeros(4)
    runs = 10000
    for _ in range(runs):
        s = pipage_round(m, x, rng)
        assert len(s) == 2
        counts[list(s)] += 1
    freq = counts / runs
    sigma = np.sqrt(0.25 / runs)
    assert np.all(np.abs(freq - 0.5) < 4 * sigma)


def test_pipage_partition_matroid():
    g = GroundSet(6)
    m = PartitionMatroid(g, parts=(0b000111, 0b111000), caps=(1, 2))
    rng = np.random.default_rng(12)
    x = np.array([0.3, 0.3, 0.4, 0.6, 0.7, 0.7])
    counts = np.zeros(6)
    runs = 5000
    for _ in range(runs):
        s = pipage_round(m, x, rng)
        counts[list(s)] += 1
    freq = counts / runs
    assert np.all(np.abs(freq - x) < 4 * np.sqrt(0.25 / runs))


def test_pipage_polytope_violation_rejected():
    g = GroundSet(4)
    m = UniformMatroid(g, 2)
    with pytest.raises(ValueError):
        pipage_round(m, np.array([0.9, 0.9, 0.9, 0.9]), np.random.default_rng(0))


@dataclass(frozen=True)
class _LooseGroupsMatroid(UniformMatroid):
    """Inconsistent stub: its groups() allow one element more than its
    indep_mask, which overrides the one derived from the groups."""

    def indep_mask(self, mask):
        return mask.bit_count() <= self.r - 1


def test_pipage_rejects_dependent_result():
    # a raised exception, not an assert, so the check also runs under python -O
    g = GroundSet(4)
    m = _LooseGroupsMatroid(g, 2)
    with pytest.raises(ValueError, match="dependent"):
        pipage_round(m, np.array([1.0, 1.0, 0.0, 0.0]), np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pipage_rejects_non_finite_coordinates(bad):
    m = UniformMatroid(GroundSet(4), 2)
    with pytest.raises(ValueError, match="NaN or outside"):
        pipage_round(m, [bad, 0.5, 0.5, 0.0], np.random.default_rng(0))


@pytest.mark.parametrize("cfg", [Greedy(), DoubleGreedy(), MeasuredContinuousGreedy(step=0.5),
                                 RandomSubset(3)])
def test_run_solver_rejects_a_matroid_over_another_ground_set(cfg):
    oracle = ExactOracle(random_waq(10, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="matroid over a ground set of size 5, oracle over size 10"):
        run_solver(cfg, oracle, UniformMatroid(GroundSet(5), 5), np.random.default_rng(0))


def _mismatched_calls(other, rng):
    """Every entry point that takes two ground-bearing arguments, called
    with one over `other` and the rest over 10 elements."""
    g = GroundSet(10)
    spec = random_waq(10, np.random.default_rng(0))
    exact = ExactOracle(spec)
    noisy = PersistentNoisyOracle(spec, NoiseSpec(Gaussian(0.1)), 3)
    meta_cfg = MetaConfig(h=3, t=1, m=3, inner=DoubleGreedy(),
                          matroid=UniformMatroid(other, 5))
    surr_cfg = SurrogateConfig.draw(other.subset([0, 1, 2]), 1, 2, np.random.default_rng(1))
    return {
        "union": lambda: g.subset([0]).union(other.subset([1])),
        "issubset": lambda: g.subset([0]).issubset(other.full_set()),
        "value": lambda: noisy.value(other.subset([0, 3])),
        "evaluate": lambda: evaluate(spec, other.subset([0, 3])),
        "is_independent": lambda: is_independent(UniformMatroid(g, 3), other.subset([0])),
        "ContractedMatroid": lambda: ContractedMatroid(UniformMatroid(g, 3), other.subset([1])),
        "SampledSurrogateOracle": lambda: SampledSurrogateOracle(noisy, surr_cfg),
        "run_solver": lambda: run_solver(Greedy(), exact, UniformMatroid(other, 5), rng),
        "greedy_cardinality": lambda: greedy_cardinality(exact, UniformMatroid(other, 5)),
        "double_greedy ground": lambda: double_greedy(exact, other, rng),
        "double_greedy universe": lambda: double_greedy(exact, g, rng,
                                                        universe=other.full_set()),
        "double_greedy matroid": lambda: double_greedy(exact, g, rng,
                                                       matroid=UniformMatroid(other, 2)),
        "measured_continuous_greedy": lambda: measured_continuous_greedy(
            exact, UniformMatroid(other, 5), MeasuredContinuousGreedy(step=0.5), rng),
        "meta_solve": lambda: meta_solve(noisy, meta_cfg, rng),
        "best_of_T": lambda: best_of_T(noisy, meta_cfg, 2, rng),
        "comparison_surrogate_f0": lambda: comparison_surrogate_f0(noisy, other.subset([0, 3])),
    }


@pytest.mark.parametrize("k", [5, 12])
@pytest.mark.parametrize("call", list(_mismatched_calls(GroundSet(5), None)))
def test_every_entry_point_rejects_mismatched_ground_sets(call, k):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"over a ground set of size {k}, .* over size 10$"):
        _mismatched_calls(GroundSet(k), rng)[call]()
    assert rng.bit_generator.state == state  # rejected before any draw


def test_exact_extension_over_the_table_budget_raises():
    n = MULTILINEAR_BUDGET + 1
    cfg = MeasuredContinuousGreedy(step=0.5, exact_extension=True)
    with pytest.raises(ValueError, match="enumeration budget"):
        measured_continuous_greedy(ExactOracle(Modular((1.0,) * n)),
                                   UniformMatroid(GroundSet(n), 1), cfg,
                                   np.random.default_rng(0))


def test_pipage_expected_value_dominates_extension():
    rng = np.random.default_rng(13)
    spec = random_coverage(8, rng)
    g = GroundSet(8)
    m = UniformMatroid(g, 3)
    x = np.array([0.5, 0.5, 0.4, 0.3, 0.3, 0.4, 0.3, 0.3])
    vals = np.array([
        evaluate(spec, pipage_round(m, x, rng)) for _ in range(4000)
    ])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert vals.mean() >= multilinear_exact(spec, x) - 3 * se


def test_random_subset_solver_independent_under_matroids():
    g = GroundSet(12)
    pm = PartitionMatroid(g, parts=(0x00F, 0x0F0, 0xF00), caps=(2, 1, 2))
    once = contract(pm, g.subset([0, 5]))
    twice = contract(once, g.subset([1, 8]))
    oracle = ExactOracle(Modular((1.0,) * 12))
    rng = np.random.default_rng(17)
    for m in (pm, once, twice):
        for size in (0, 1, 2, 4, 12):
            for _ in range(20):
                s = RandomSubset(size).solve(oracle, m, rng)
                assert is_independent(m, s)
                assert len(s) == min(size, m.rank())
    with pytest.raises(ValueError):
        RandomSubset(-1)


def test_run_solver_dispatch():
    rng = np.random.default_rng(15)
    spec = random_coverage(8, rng)
    g = GroundSet(8)
    m = UniformMatroid(g, 3)
    oracle = ExactOracle(spec)
    for cfg in (Greedy(), DoubleGreedy(),
                MeasuredContinuousGreedy(step=0.1, exact_extension=True),
                RandomSubset(size=3)):
        s = run_solver(cfg, oracle, m, rng)
        assert isinstance(s, ElementSet)
        if not isinstance(cfg, DoubleGreedy):
            assert len(s) <= 3
    with pytest.raises(AttributeError):
        run_solver(object(), oracle, m, rng)


def test_run_solver_double_greedy_binding_matroid():
    rng = np.random.default_rng(16)
    spec = random_cut(9, rng)
    g = GroundSet(9)
    m = UniformMatroid(g, 4)
    for _ in range(20):
        s = run_solver(DoubleGreedy(), ExactOracle(spec), m, rng)
        assert len(s) <= 4


# Greedy sends each round's feasible candidates as one batch.  It must query
# the same sets in the same order as one query per candidate, and pick the
# same set, on exact and noisy oracles, under uniform and partition matroids.

@given(st.integers(0, 2), st.integers(1, 40), st.booleans(), st.integers(1, 5),
       st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_greedy_batches_query_like_the_single_query_loop(family, n, noisy, parts, seed):
    rng = np.random.default_rng(seed)
    spec = (random_waq, random_coverage, random_cut)[family](n, rng)
    oracle = (PersistentNoisyOracle(spec, NoiseSpec(BoundedUniform(0.5)), seed) if noisy
              else ExactOracle(spec))
    g = GroundSet(n)
    labels = rng.integers(0, parts, size=n)
    part_masks = tuple(sum(1 << i for i in range(n) if labels[i] == p) for p in range(parts))
    caps = tuple(min(int(rng.integers(0, 4)), pm.bit_count()) for pm in part_masks)
    for matroid in (UniformMatroid(g, int(rng.integers(0, n + 1))),
                    PartitionMatroid(g, part_masks, caps)):
        batched, single = RecordingOracle(oracle), RecordingOracle(oracle)
        got = greedy_cardinality(batched, matroid)
        assert got == greedy_by_single_queries(single, matroid)
        assert batched.queries == single.queries
        assert greedy_cardinality(oracle, matroid) == got
