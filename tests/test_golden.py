"""Golden digests: the exact bytes of a small `simulate` run, the noise
stream, the random choices of every solver, and the instance-file text.

The other tests check properties, which a silent change of the noise stream
or of a solver's random choices still passes.  These pin the outputs
themselves.  When a change moves one of them on purpose (a new noise
stream, say), re-pin the value here and record the change in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from noisysubmax.cli import main
from noisysubmax.instance_io import Instance, dumps_instance, loads_instance
from noisysubmax.matroids import PartitionMatroid, UniformMatroid, contract
from noisysubmax.meta import MetaConfig, best_of_T, meta_solve
from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               PersistentNoisyOracle, ShiftedExponential)
from noisysubmax.oracles import ExactOracle
from noisysubmax.random_instances import random_coverage, random_cut
from noisysubmax.sets import GroundSet
from noisysubmax.setfn import (Coverage, CutFunction, Modular,
                               WeightedAdditiveQuadratic)
from noisysubmax.solvers import (DoubleGreedy, Greedy, MeasuredContinuousGreedy,
                                 RandomSubset, run_solver)

SIMULATE_ARGS = ["simulate", "--n", "20", "--trials", "20", "--seed", "0", "--workers", "1"]
SIMULATE_SHA256 = "428ab659f1e172b3ab0bb368dafa82762a7cffd2ebd63879e5a4dfdef3faac0d"


def test_simulate_csv_digest(tmp_path):
    out = tmp_path / "golden.csv"
    assert main(SIMULATE_ARGS + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256


# n=70, so the masks span two 64-bit words.  The parameters make negative
# draws common, so that clamp_negative changes the vector.
WIDE_N = 70
WIDE_MASKS = [(k * 0x9E3779B97F4A7C15F39CC0605CEDC835) % (1 << WIDE_N) for k in range(32)]
DISTRIBUTIONS = {
    "gaussian": Gaussian(4.0),
    "bounded_uniform": BoundedUniform(1.5),
    "shifted_exponential": ShiftedExponential(0.5),
}
MULTIPLIER_SHA256 = {
    ("bounded_uniform", False): "f6597ca9e7edb73e0307885b44efbba95e306c67bbe5430ec47450390df950c5",
    ("bounded_uniform", True): "1c8b2138f201d447cb197458a6d179cc031dab1d9d06a47427644a56ad1c758d",
    ("gaussian", False): "b6d6fad36a2d5120964c85f9aa2d3052008c1f24d82169c0e2cd92de00db4cd4",
    ("gaussian", True): "c33868073f74ef06f75f3540c51f9fae8923360e24bf99dfdb99c3c59d38fd11",
    ("shifted_exponential", False): "a4798d7a0b84a3fd416beae069709755c8f4de5546144ece83b9a211975e6df3",
    ("shifted_exponential", True): "8e0db453a5cd7c222086c50892996f3a609e96f8215bf11bd00319666c865e34",
}


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_multiplier_vector_digest(name, clamp):
    noise = NoiseSpec(DISTRIBUTIONS[name], clamp_negative=clamp)
    oracle = PersistentNoisyOracle(Modular((1.0,) * WIDE_N), noise, master_seed=20251021)
    values = [oracle.multiplier_mask(mask) for mask in WIDE_MASKS]
    assert (min(values) >= 0.0) == clamp
    digest = hashlib.sha256(",".join(v.hex() for v in values).encode()).hexdigest()
    assert digest == MULTIPLIER_SHA256[name, clamp]


SOLVER_CONFIGS = (
    Greedy(),
    DoubleGreedy(),
    MeasuredContinuousGreedy(step=0.25, partial_samples=4),
    MeasuredContinuousGreedy(step=0.25, exact_extension=True),
    RandomSubset(size=4),
)
# One row per function and matroid: the solution mask of each entry of
# SOLVER_CONFIGS on the exact oracle, then meta_solve and best_of_T on the
# noisy oracle.
SOLUTION_MASKS = {
    "coverage/uniform": (0xD41, 0x01F, 0x944, 0xA90, 0x704, 0xD04, 0x01D),
    "coverage/partition": (0xC49, 0x313, 0x914, 0x98C, 0x606, 0x82A, 0x314),
    "coverage/contracted": (0xC08, 0x302, 0x108, 0x908, 0x302, 0x402, 0x204),
    "cut/uniform": (0x83A, 0x29A, 0x81A, 0x109, 0x10E, 0x102, 0x04B),
    "cut/partition": (0xA1A, 0x94C, 0xC19, 0x919, 0x911, 0x80A, 0x21C),
    "cut/contracted": (0xC02, 0x304, 0x108, 0x904, 0x308, 0x208, 0x204),
}


def _problems():
    n = 12
    ground = GroundSet(n)
    rng = np.random.default_rng(2025)
    functions = {
        "coverage": (random_coverage(n, rng), NoiseSpec(BoundedUniform(0.5))),
        "cut": (random_cut(n, rng), NoiseSpec(ShiftedExponential(2.0))),
    }
    partition = PartitionMatroid(ground, parts=(0x00F, 0x0F0, 0xF00), caps=(2, 1, 2))
    matroids = {
        "uniform": UniformMatroid(ground, 5),
        "partition": partition,
        "contracted": contract(partition, ground.subset([0, 5])),
    }
    for i, (fname, (fn, noise)) in enumerate(functions.items()):
        for j, (mname, matroid) in enumerate(matroids.items()):
            yield f"{fname}/{mname}", fn, noise, matroid, (i, j)


def test_solution_masks():
    got = {}
    for label, fn, noise, matroid, key in _problems():
        masks = []
        exact = ExactOracle(fn)
        for k, cfg in enumerate(SOLVER_CONFIGS):
            rng = np.random.default_rng([*key, k])
            masks.append(run_solver(cfg, exact, matroid, rng).mask)
        noisy = PersistentNoisyOracle(fn, noise, master_seed=7 + key[1])
        cfg = MetaConfig(h=2, t=1, m=2, inner=Greedy(), matroid=matroid)
        masks.append(meta_solve(noisy, cfg, np.random.default_rng([*key, 100])).mask)
        cfg = MetaConfig(h=2, t=1, m=2, inner=DoubleGreedy(), matroid=matroid)
        masks.append(best_of_T(noisy, cfg, 3, np.random.default_rng([*key, 101])).mask)
        got[label] = tuple(masks)
    assert got == SOLUTION_MASKS


# Each instance with the exact text `dumps_instance` writes for it.  Together
# they cover every function, matroid and noise variant, a cut without edges,
# a nested contraction, clamping on and off, and seeds at both ends of the
# allowed range.

def _instance_files():
    g = GroundSet(6)
    partition = PartitionMatroid(g, parts=(0b000111, 0b111000), caps=(2, 1))
    yield Instance(
        function=WeightedAdditiveQuadratic((12.5, 3.25, 0.1 + 0.2), 1 / 3),
        matroid=UniformMatroid(g, 3), noise=NoiseSpec(Gaussian(0.1)),
        master_seed=123456789,
    ), ["[function]", "variant = weighted_additive_quadratic",
        "weights = 12.5 3.25 0.30000000000000004", "cost = 0.3333333333333333", "",
        "[matroid]", "variant = uniform", "n = 6", "rank = 3", "",
        "[noise]", "distribution = gaussian", "sigma2 = 0.1", "clamp_negative = false", "",
        "[seed]", "master_seed = 123456789"]
    yield Instance(
        function=Modular((1.0, -2.5, 3.75)), matroid=partition,
        noise=NoiseSpec(Gaussian(4.0), clamp_negative=True),
    ), ["[function]", "variant = modular", "weights = 1.0 -2.5 3.75", "",
        "[matroid]", "variant = partition", "n = 6", "parts = 0 1 2 | 3 4 5", "caps = 2 1", "",
        "[noise]", "distribution = gaussian", "sigma2 = 4.0", "clamp_negative = true"]
    yield Instance(
        function=Coverage((0b101, 0, 0b111), (0.5, 1.5, 2.5)),
        matroid=contract(UniformMatroid(g, 4), g.subset([1, 5])),
        noise=NoiseSpec(BoundedUniform(0.5)),
    ), ["[function]", "variant = coverage", "covers = 0 2 |  | 0 1 2",
        "item_weights = 0.5 1.5 2.5", "",
        "[matroid]", "variant = contracted", "pinned = 1 5",
        "base_variant = uniform", "base_n = 6", "base_rank = 4", "",
        "[noise]", "distribution = bounded_uniform", "halfwidth = 0.5", "clamp_negative = false"]
    yield Instance(
        function=CutFunction(4, ((0, 1, 1.5), (2, 3, 0.25))),
        matroid=contract(contract(partition, g.subset([0])), g.subset([4])),
        noise=NoiseSpec(BoundedUniform(1.5), clamp_negative=True), master_seed=0,
    ), ["[function]", "variant = cut", "n = 4", "edges = 0-1:1.5 2-3:0.25", "",
        "[matroid]", "variant = contracted", "pinned = 4",
        "base_variant = contracted", "base_pinned = 0",
        "base_base_variant = partition", "base_base_n = 6",
        "base_base_parts = 0 1 2 | 3 4 5", "base_base_caps = 2 1", "",
        "[noise]", "distribution = bounded_uniform", "halfwidth = 1.5", "clamp_negative = true", "",
        "[seed]", "master_seed = 0"]
    yield Instance(
        function=CutFunction(3, ()), noise=NoiseSpec(ShiftedExponential(2.0)),
    ), ["[function]", "variant = cut", "n = 3", "edges = ", "",
        "[noise]", "distribution = shifted_exponential", "rate = 2.0", "clamp_negative = false"]
    yield Instance(
        noise=NoiseSpec(ShiftedExponential(0.5), clamp_negative=True), master_seed=2**64 - 1,
    ), ["[noise]", "distribution = shifted_exponential", "rate = 0.5", "clamp_negative = true", "",
        "[seed]", "master_seed = 18446744073709551615"]


@pytest.mark.parametrize("inst, lines", list(_instance_files()))
def test_instance_file_text(inst, lines):
    text = "\n".join(lines) + "\n"
    assert dumps_instance(inst) == text
    assert loads_instance(text) == inst
