"""The random instance generators: the block draws of `random_coverage` and
`random_cut` against the loops with one scalar draw per decision, the
harness's instances against `random_waq`, and the input errors of all three
families."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax import random_instances
from noisysubmax.harness import ExperimentSpec, generate_instance
from noisysubmax.random_instances import random_coverage, random_cut, random_waq
from reference import random_coverage_by_scalar_draws, random_cut_by_scalar_draws

BIT_GENERATORS = {"pcg64": np.random.default_rng,
                  "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed))}

seeds = st.integers(0, 2**32 - 1)
bit_generators = st.sampled_from(sorted(BIT_GENERATORS))
# p at both ends and strictly inside (0, 1)
probabilities = st.one_of(st.just(0.0), st.just(1.0),
                          st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


def _two_generators(name, seed):
    make = BIT_GENERATORS[name]
    return make(seed), make(seed)


@given(st.integers(1, 100), st.one_of(st.none(), st.integers(0, 200)), bit_generators, seeds)
@settings(max_examples=100, deadline=None)
def test_coverage_blocks_match_scalar_draws(n, items, bitgen, seed):
    rng, ref = _two_generators(bitgen, seed)
    got = random_coverage(n, rng, items)
    want = random_coverage_by_scalar_draws(n, ref, items)
    assert got.covers == want.covers
    assert [w.hex() for w in got.item_weights] == [w.hex() for w in want.item_weights]
    # the generator ends in the same state
    assert rng.random().hex() == ref.random().hex()


@given(st.integers(1, 100), probabilities, bit_generators, seeds)
@settings(max_examples=150, deadline=None)
def test_cut_blocks_match_scalar_draws(n, p, bitgen, seed):
    rng, ref = _two_generators(bitgen, seed)
    got = random_cut(n, rng, p)
    want = random_cut_by_scalar_draws(n, ref, p)
    assert [(u, v, w.hex()) for u, v, w in got.edges] == \
        [(u, v, w.hex()) for u, v, w in want.edges]
    assert all(type(w) is float for _, _, w in got.edges)
    assert rng.random().hex() == ref.random().hex()


@given(st.integers(1, 100), bit_generators, seeds)
@settings(max_examples=50, deadline=None)
def test_generate_instance_draws_its_waq_through_random_waq(n, bitgen, seed):
    rng, ref = _two_generators(bitgen, seed)
    got, _ = generate_instance(ExperimentSpec(n=n, trials=1, h=1, t=0, m_values=(1,)), rng)
    want = random_waq(n, ref)
    assert [w.hex() for w in got.weights] == [w.hex() for w in want.weights]
    assert got.cost == want.cost
    # then the trial draws its noise seed
    ref.integers(0, 2**63)
    assert rng.random().hex() == ref.random().hex()


def test_random_waq_gives_up_after_the_resample_limit(monkeypatch):
    monkeypatch.setattr(random_instances, "RESAMPLE_LIMIT", 3)
    monkeypatch.setattr(random_instances, "nonnegative_certified", lambda weights, cost: False)
    rng, ref = _two_generators("pcg64", 0)
    with pytest.raises(RuntimeError, match="exceeded 3 attempts"):
        random_waq(5, rng)
    ref.uniform(0.0, 20.0, size=(3, 5))  # three draws of five weights
    assert rng.random().hex() == ref.random().hex()


def test_coverage_items():
    rng = np.random.default_rng(0)
    assert len(random_coverage(6, rng).item_weights) == 12
    empty = random_coverage(6, rng, items=0)
    assert empty.item_weights == () and empty.covers == (0,) * 6
    with pytest.raises(ValueError, match="items"):
        random_coverage(6, rng, items=-1)


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, math.inf])
def test_cut_rejects_probability_outside_unit_interval(p):
    with pytest.raises(ValueError, match="probability"):
        random_cut(6, np.random.default_rng(0), p)


@pytest.mark.parametrize("gen", [random_waq, random_coverage, random_cut])
@pytest.mark.parametrize("n", [0, -3])
def test_generators_reject_empty_ground_set(gen, n):
    with pytest.raises(ValueError, match="ground set size must be >= 1"):
        gen(n, np.random.default_rng(0))
