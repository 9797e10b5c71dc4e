from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from noisysubmax import instance_io
from noisysubmax.instance_io import (Instance, dumps_instance, load_instance,
                                     loads_instance, save_instance)
from noisysubmax.matroids import (ContractedMatroid, PartitionMatroid,
                                  UniformMatroid)
from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               ShiftedExponential)
from noisysubmax.sets import GroundSet
from noisysubmax.setfn import (Coverage, CutFunction, Modular,
                               WeightedAdditiveQuadratic)


def roundtrip(inst: Instance) -> Instance:
    return loads_instance(dumps_instance(inst))


def test_waq_roundtrip():
    fn = WeightedAdditiveQuadratic(weights=(12.5, 3.25, 0.1 + 0.2), cost=1 / 3)
    out = roundtrip(Instance(function=fn))
    assert out.function == fn


def test_modular_roundtrip():
    fn = Modular(weights=(1.0, -2.5, 3.75))
    assert roundtrip(Instance(function=fn)).function == fn


def test_coverage_roundtrip():
    fn = Coverage(covers=(0b101, 0b010, 0b111), item_weights=(0.5, 1.5, 2.5))
    assert roundtrip(Instance(function=fn)).function == fn


def test_cut_roundtrip():
    fn = CutFunction(n_vertices=4, edges=((0, 1, 1.5), (2, 3, 0.25)))
    assert roundtrip(Instance(function=fn)).function == fn
    empty = CutFunction(n_vertices=3, edges=())
    assert roundtrip(Instance(function=empty)).function == empty


def test_matroid_roundtrips():
    g = GroundSet(6)
    for m in (UniformMatroid(g, 3),
              PartitionMatroid(g, parts=(0b000111, 0b111000), caps=(2, 1)),
              ContractedMatroid(UniformMatroid(g, 4), g.subset([1, 5]))):
        assert roundtrip(Instance(matroid=m)).matroid == m


def test_noise_roundtrips():
    for noise in (NoiseSpec(Gaussian(0.1)),
                  NoiseSpec(BoundedUniform(0.5), clamp_negative=True),
                  NoiseSpec(ShiftedExponential(2.0))):
        assert roundtrip(Instance(noise=noise)).noise == noise


def test_seed_and_full_instance_roundtrip(tmp_path):
    g = GroundSet(3)
    inst = Instance(
        function=Modular(weights=(1.0, 2.0, 3.0)),
        matroid=UniformMatroid(g, 2),
        noise=NoiseSpec(Gaussian(0.1)),
        master_seed=123456789,
    )
    out = roundtrip(inst)
    assert out == inst
    path = tmp_path / "inst.txt"
    save_instance(path, inst)
    assert load_instance(path) == inst


def test_comments_and_blank_lines_ignored():
    text = """
# a comment
[function]
variant = modular
weights = 1.0 2.0

# another
[seed]
master_seed = 7
"""
    inst = loads_instance(text)
    assert inst.function == Modular(weights=(1.0, 2.0))
    assert inst.master_seed == 7


def test_malformed_rejected():
    with pytest.raises(ValueError):
        loads_instance("stray line without section")
    with pytest.raises(ValueError):
        loads_instance("[function]\nvariant = nonsense\n")
    with pytest.raises(ValueError):
        loads_instance("[noise]\ndistribution = cauchy\n")
    with pytest.raises(ValueError):
        loads_instance("[matroid]\nvariant = graphic\n")


NOISE = "[noise]\ndistribution = gaussian\nsigma2 = 0.1\n"
CONTRACTED = "[matroid]\nvariant = contracted\npinned = 0\nbase_variant = uniform\nbase_n = 3\n"


@pytest.mark.parametrize("text", [
    NOISE + "clamp_negative = yes\n",
    NOISE + "clamp_negativ = true\n",
    "[seed]\nmaster_seed = 1\n[seed]\nmaster_seed = 2\n",
    "[seed]\nmaster_seed = 1\nmaster_seed = 2\n",
    "[functon]\nvariant = modular\nweights = 1.0\n",
    "[function]\nvariant = modular\n",
    "[noise]\nsigma2 = 0.1\n",
    CONTRACTED,
    CONTRACTED + "base_rank = 2\nbase_base_rank = 1\n",
    "[function]\nvariant = cut\nn = 3\nedges = 0-7:1.0\n",
    "[function]\nvariant = coverage\ncovers = 0 | 3\nitem_weights = 1.0 2.0\n",
], ids=["bool_not_true_or_false", "misspelt_key", "repeated_section", "repeated_key",
        "unknown_section", "missing_key", "missing_distribution", "missing_base_key",
        "extra_base_key", "cut_vertex_outside", "coverage_item_outside"])
def test_malformed_file_raises_value_error(text):
    with pytest.raises(ValueError):
        loads_instance(text)


@pytest.mark.parametrize("distribution, key, bad", [
    ("gaussian", "sigma2", "nan"), ("gaussian", "sigma2", "-0.1"),
    ("bounded_uniform", "halfwidth", "inf"), ("bounded_uniform", "halfwidth", "-0.5"),
    ("shifted_exponential", "rate", "0.0"), ("shifted_exponential", "rate", "-2.0"),
    ("shifted_exponential", "rate", "nan")])
def test_bad_noise_parameter_in_file_raises_value_error(distribution, key, bad):
    with pytest.raises(ValueError, match="must be finite"):
        loads_instance(f"[noise]\ndistribution = {distribution}\n{key} = {bad}\n")


def test_optional_keys_and_boolean_case():
    inst = loads_instance(NOISE + "[function]\nvariant = cut\nn = 2\n")
    assert inst.noise == NoiseSpec(Gaussian(0.1)) and inst.function == CutFunction(2, ())
    assert loads_instance(NOISE + "clamp_negative = True\n").noise.clamp_negative


@dataclass(frozen=True)
class ScaledModular:
    weights: tuple[float, ...]
    scale: float


@dataclass(frozen=True)
class TwoPoint:
    spread: float


def test_new_variant_is_one_table_row(monkeypatch):
    monkeypatch.setitem(instance_io._FUNCTIONS, "scaled_modular", (ScaledModular, (
        ("weights", "weights", instance_io._REALS), ("scale", "scale", instance_io._REAL))))
    monkeypatch.setitem(instance_io._DISTRIBUTIONS, "two_point", (TwoPoint, (
        ("spread", "spread", instance_io._REAL),)))
    inst = Instance(function=ScaledModular((1.0, 2.5), 0.5), noise=NoiseSpec(TwoPoint(0.25)))
    text = dumps_instance(inst)
    assert "variant = scaled_modular\nweights = 1.0 2.5\nscale = 0.5\n" in text
    assert "distribution = two_point\nspread = 0.25\n" in text
    assert loads_instance(text) == inst


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12),
                min_size=1, max_size=10),
       st.floats(allow_nan=False, allow_infinity=False, min_value=0, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_real_fields_roundtrip_exactly(weights, cost):
    fn = WeightedAdditiveQuadratic(weights=tuple(weights), cost=cost)
    out = roundtrip(Instance(function=fn)).function
    assert out.weights == fn.weights and out.cost == fn.cost
