"""Golden digests: the exact bytes of a small `simulate` run, the noise
stream, the set-function values, the random choices of every solver, the
instance-file text, the numbers of the smoothing-lemma suite and the exact
surrogate values of acceptance criterion 08.

The other tests check properties, which a silent change of the noise stream
or of a solver's random choices still passes.  These pin the outputs
themselves.  When a change moves one of them on purpose (a new noise
stream, say), re-pin the value here and record the change in CHANGES.md.
"""
import hashlib
import subprocess
import sys

import numpy as np
import pytest

from noisysubmax import solvers
from noisysubmax.checks import smoothing_lemma_gap
from noisysubmax.cli import main
from noisysubmax.instance_io import Instance, dumps_instance, loads_instance
from noisysubmax.matroids import PartitionMatroid, UniformMatroid, contract
from noisysubmax.meta import MetaConfig, best_of_T, meta_solve
from noisysubmax.noise import (BoundedUniform, Gaussian, NoiseSpec,
                               PersistentNoisyOracle, ShiftedExponential)
from noisysubmax.oracles import ExactOracle
from noisysubmax.random_instances import random_coverage, random_cut, random_waq
from noisysubmax.sets import ElementSet, GroundSet
from noisysubmax.setfn import (Coverage, CutFunction, Modular,
                               WeightedAdditiveQuadratic, evaluate_mask)
from noisysubmax.solvers import (DoubleGreedy, Greedy, MeasuredContinuousGreedy,
                                 RandomSubset, measured_continuous_greedy, pipage_round,
                                 run_solver)
from noisysubmax.surrogate import ParamBudget, compute_parameters

from reference import FORCED_PATH_ORACLES, exact_surrogate, force_path

SIMULATE_ARGS = ["simulate", "--n", "20", "--trials", "20", "--seed", "0", "--workers", "1"]
SIMULATE_SHA256 = "2079a3f5dba48e1d55ee0f2582bca56dae61e1e6ea833f12f7358aa514410dc2"


def test_simulate_csv_digest(tmp_path):
    out = tmp_path / "golden.csv"
    assert main(SIMULATE_ARGS + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256


# h=12 < n: the ours_m* runs smooth with 12 of the 20 elements and run double
# greedy on the noisy surrogate of the other 8.  C(12, 3) = 220, so m=50 is
# drawn by rejection and m=200 through the enumeration of every 3-subset.
SMOOTHED_SIMULATE_ARGS = ["simulate", "--n", "20", "--trials", "20", "--h", "12", "--t", "3",
                          "--seed", "0", "--workers", "1"]
SMOOTHED_SIMULATE_SHA256 = "24b4372600612a197ec41df710718ceb4634af7515c7eba8e5284bae12e60d66"


def test_simulate_csv_digest_with_a_smoothing_set_below_n(tmp_path):
    out = tmp_path / "smoothed.csv"
    assert main(SMOOTHED_SIMULATE_ARGS + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SMOOTHED_SIMULATE_SHA256


def test_simulate_csv_digest_under_spawn(tmp_path):
    # two pool workers that start from a fresh interpreter write the same bytes
    out = tmp_path / "spawn.csv"
    args = SIMULATE_ARGS[:-2] + ["--workers", "2", "--out", str(out)]
    code = ("import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from noisysubmax.cli import main\n"
            f"sys.exit(main({args!r}))\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=600,
                   stdout=subprocess.DEVNULL)
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
    ("bounded_uniform", False): "6b917b197cf447d947587a4f06ac154c1dab75d8324422999bade1245b1bed9b",
    ("bounded_uniform", True): "1deafff3b45e595c23f9913688822faa977c0518e99c98d55d187505b5f90f0c",
    ("gaussian", False): "72279b51cfe5bad21cbc860c019ccf04f967794eb76f2c6061bd9ab7ca067694",
    ("gaussian", True): "30506fbc3e876dd9da8778e33c55fac7d43090435d1b8db8d0eab48f8f510c3c",
    ("shifted_exponential", False): "088e4fb8aa07444a3289d715fddc9409860f94bd250a337427cf1544b7ac37c1",
    ("shifted_exponential", True): "df8728d3a25639440597342eb9f55bcf4912466dd04117f962ed3b719c10be18",
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
    "coverage/uniform": (0xD41, 0x01F, 0x944, 0xA90, 0x704, 0x524, 0x069),
    "coverage/partition": (0xC49, 0x313, 0x914, 0x98C, 0x606, 0x88A, 0x503),
    "coverage/contracted": (0xC08, 0x302, 0x108, 0x908, 0x302, 0x802, 0x300),
    "cut/uniform": (0x83A, 0x29A, 0x81A, 0x109, 0x10E, 0x09A, 0x10B),
    "cut/partition": (0xA1A, 0x94C, 0xC19, 0x919, 0x911, 0x802, 0x503),
    "cut/contracted": (0xC02, 0x304, 0x108, 0x904, 0x308, 0x202, 0x300),
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


# The fractional point measured continuous greedy returns with sampled
# partials, before rounding: SOLUTION_MASKS pins only the rounded set, which
# can stay the same while x moves.  One digest per problem covers steps 0.25
# and 0.1; "cut40/partition" is an n=40 cut under a 5x3 partition matroid.
MCG_POINT_SHA256 = {
    "coverage/uniform": "2bb9f2c704a8384c3d30eee975487751e7678641815b2b015ea3e5138692dba7",
    "coverage/partition": "f8c09490c2ebac6f55e7d245753a682942421de4d804927e32a3ed5f943e984b",
    "coverage/contracted": "e55dca00f017aa7dba00ec6323c0f11bcdb193da2d4ddbd798a228c299e49523",
    "cut/uniform": "23f655c0e7286ca29d82b3391b48b7b8d73e6add09bc90ecc465cce40e0748d1",
    "cut/partition": "4b5d6783d0f007068dc96a77197f8730e99b046699e56ae20f1fdd3b292457cb",
    "cut/contracted": "d73b14fa992aeea0aea21df2f216d04cbfd2257786d17e7a99370648562291a6",
    "cut40/partition": "3965024322397543abafa42f39bdaf745e048296149221690e91434392b7fb52",
}


def _mcg_problems():
    for label, fn, _, matroid, key in _problems():
        yield label, fn, matroid, key
    n = 40
    ground = GroundSet(n)
    parts = tuple(0xFF << (8 * p) for p in range(5))
    yield ("cut40/partition", random_cut(n, np.random.default_rng(40), 0.25),
           PartitionMatroid(ground, parts=parts, caps=(3,) * 5), (2, 0))


def test_mcg_point_digest():
    got = {}
    for label, fn, matroid, key in _mcg_problems():
        points = []
        for k, step in enumerate((0.25, 0.1)):
            cfg = MeasuredContinuousGreedy(step=step, partial_samples=4)
            rng = np.random.default_rng([*key, 200 + k])
            points.extend(measured_continuous_greedy(ExactOracle(fn), matroid, cfg, rng))
        got[label] = hashlib.sha256(",".join(v.hex() for v in points).encode()).hexdigest()
    assert got == MCG_POINT_SHA256


# The benchmark's constrained_mix composition at n=40 under a 5x3 partition
# matroid (parts of 8, cap 3), on two coverage/cut pairs: exact greedy and
# meta_solve (Greedy inner, h=8, t=2, m=20) on the coverage under
# BoundedUniform(0.5) noise, sampled mcg (step 0.1, 4 samples) and pipage on
# the cut, and best_of_T (T=3, DoubleGreedy inner, m=10) on the cut under
# ShiftedExponential(2.0) noise.  Each entry is the solution mask and the
# float.hex of f at it.  SOLUTION_MASKS pins only n=12, where a mask fits in
# 2 bytes and a cut has about 33 edges; here masks span 5 bytes and a cut
# about 200 edges.
MIX40_SOLUTIONS = {
    0: {"greedy": (0x0014490140, "0x1.8ca2059d0025cp+6"),
        "meta": (0x0040034086, "0x1.6bfa3eabe579cp+6"),
        "pipage": (0x41914222A2, "0x1.928859be3aad7p+6"),
        "best_of_T": (0x050903100A, "0x1.64986698068d7p+6")},
    1: {"greedy": (0x0180220C28, "0x1.867eda6172101p+6"),
        "meta": (0x29800A0014, "0x1.6d3311c5209a1p+6"),
        "pipage": (0x2142288511, "0x1.794e175b78bd5p+6"),
        "best_of_T": (0x3003020807, "0x1.19704f1b6db73p+6")},
}


def _mix40_solutions(seed):
    n = 40
    matroid = PartitionMatroid(GroundSet(n), parts=tuple(0xFF << (8 * p) for p in range(5)),
                               caps=(3,) * 5)
    rng = np.random.default_rng([40, seed])
    cover, cut = random_coverage(n, rng), random_cut(n, rng, 0.25)
    rngs = [np.random.default_rng([40, seed, k]) for k in range(4)]
    yield "greedy", cover, run_solver(Greedy(), ExactOracle(cover), matroid, rngs[0])
    noisy = PersistentNoisyOracle(cover, NoiseSpec(BoundedUniform(0.5)), master_seed=40 + seed)
    cfg = MetaConfig(h=8, t=2, m=20, inner=Greedy(), matroid=matroid)
    yield "meta", cover, meta_solve(noisy, cfg, rngs[1])
    mcg = MeasuredContinuousGreedy(step=0.1, partial_samples=4)
    x = measured_continuous_greedy(ExactOracle(cut), matroid, mcg, rngs[2])
    yield "pipage", cut, pipage_round(matroid, x, rngs[2])
    noisy = PersistentNoisyOracle(cut, NoiseSpec(ShiftedExponential(2.0)), master_seed=40 + seed)
    cfg = MetaConfig(h=8, t=2, m=10, inner=DoubleGreedy(), matroid=matroid)
    yield "best_of_T", cut, best_of_T(noisy, cfg, 3, rngs[3])


def test_constrained_mix_n40_solutions():
    got = {seed: {label: (s.mask, evaluate_mask(fn, s.mask).hex())
                  for label, fn, s in _mix40_solutions(seed)}
           for seed in MIX40_SOLUTIONS}
    assert got == MIX40_SOLUTIONS


# meta_solve with a sampled measured-continuous-greedy inner on the noisy
# oracle of each SOLUTION_MASKS problem: the solution mask, and the SHA-256
# of the fractional point mcg returns on that run's surrogate over the
# contracted matroid, before rounding.
META_MCG = {
    "coverage/uniform": (0xC0C, "3b6ce040889c35c3b70218defe19ad60d6a9d86acd8f36f3e1b2bf3c9b72f088"),
    "coverage/partition": (0x902, "875de4b9e014ed86d8413d7b7ae0c7c47018b4972a840001679cc5f43d30247f"),
    "coverage/contracted": (0xA00, "94c535b8607abb8daa3177345b9bd0e4d897ebd624c12a04c9a934e8c480db43"),
    "cut/uniform": (0x806, "9e0b2c6cf3598f08f918fcad92f2b34d9c4830d7b9d96729a4fbf1101091d3ff"),
    "cut/partition": (0x541, "fa660f0682f426b84282c1c05b7f15c68349b76511ed56704dc4f595c83613fd"),
    "cut/contracted": (0x100, "dd64087a732242be32f2134e552f2bdc891c5bbbc4431d0f31cbd21349ac68ab"),
}


def test_meta_mcg_masks_and_points(monkeypatch):
    points = []

    def recording(*args):
        x = measured_continuous_greedy(*args)
        points.append(x)
        return x

    monkeypatch.setattr(solvers, "measured_continuous_greedy", recording)
    inner = MeasuredContinuousGreedy(step=0.25, partial_samples=4)
    got = {}
    for label, fn, noise, matroid, key in _problems():
        noisy = PersistentNoisyOracle(fn, noise, master_seed=7 + key[1])
        cfg = MetaConfig(h=2, t=1, m=2, inner=inner, matroid=matroid)
        mask = meta_solve(noisy, cfg, np.random.default_rng([*key, 102])).mask
        x = points.pop()
        got[label] = (mask, hashlib.sha256(",".join(v.hex() for v in x).encode()).hexdigest())
    assert not points
    assert got == META_MCG


# The pinned runs above hold bit for bit whichever path answers: every
# one-set query of the exact, noisy and surrogate oracles through a 1-row
# batch, or every batch through one-set queries row by row.  So a crossover
# between the paths is a choice of speed alone.
@pytest.mark.parametrize("mode", ["batch", "loop"])
def test_pins_hold_on_either_forced_path(mode, monkeypatch, tmp_path):
    calls = force_path(monkeypatch, mode)
    test_simulate_csv_digest(tmp_path)
    test_simulate_csv_digest_with_a_smoothing_set_below_n(tmp_path)
    test_solution_masks()
    test_constrained_mix_n40_solutions()
    test_meta_mcg_masks_and_points(monkeypatch)
    test_mcg_point_digest()
    # every forced oracle answered some queries
    assert set(calls) == {cls.__name__ for cls in FORCED_PATH_ORACLES}


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


# The value of each set-function family on fixed masks: the byte-table sum
# of WAQ, `Modular` (with negative weights), `Coverage`'s covered items and
# the cut's crossing edges at n=40 and n=100 (13-byte masks).  Each family's
# masks include the empty and the full set.
FAMILY_VALUE_SHA256 = {
    "waq70": "e05cf262ff8971f859aedde889cfb4aade46379500e7e8c90ea5a967320f176c",
    "modular70": "f0777c2950c7312c9238d934bc6ec7639163b85e490ed1af404690e0748907e7",
    "coverage30": "c36eb16649159e41049393a27428f90037ae0275a0d4576b0c66840c841382f0",
    "cut40": "9fe3ed6e44ed6d71c64ac1faf1af8545168ee83bad05c44f4179801fb2744809",
    "cut100": "37f7ce9f44d702346da15e42a1ceca7d874a7bb6173ad49a4bbabf2602bff862",
}


def _family_functions():
    rng = np.random.default_rng(2026)
    yield "waq70", random_waq(70, rng)
    yield "modular70", Modular(tuple(float(w) for w in rng.uniform(-3.0, 3.0, size=70)))
    yield "coverage30", random_coverage(30, rng, items=75)
    yield "cut40", random_cut(40, rng, 0.25)
    yield "cut100", random_cut(100, rng, 0.1)


def _family_masks(n):
    full = (1 << n) - 1
    return [0, full] + [(k * 0x9E3779B97F4A7C15F39CC0605CEDC835A1B2C3D4E5F60718) & full
                        for k in range(1, 63)]


def test_family_value_digest():
    got = {}
    for label, fn in _family_functions():
        values = [evaluate_mask(fn, mask) for mask in _family_masks(fn.n)]
        got[label] = hashlib.sha256(",".join(v.hex() for v in values).encode()).hexdigest()
    assert got == FAMILY_VALUE_SHA256


# The tuples `smoothing_lemma_gap` returns (expectation, optimum, t/(h-t))
# on the six configurations `check_smoothing_lemma(seed=7)` draws: three cuts
# and a coverage with t = 0, a cut and a coverage with t = 1.
SMOOTHING_GAP_SHA256 = "fd51c247371591553ebe643c6d1f54be3dac469e9bf4d671633f53fc36aae7b0"


def _smoothing_configs(seed):
    # the draws of check_smoothing_lemma, in its order
    rng = np.random.default_rng(seed)
    for _ in range(6):
        n = int(rng.integers(8, 13))
        r = int(rng.integers(5, min(n, 8) + 1))
        h = int(rng.integers(1, 3))
        t = int(rng.integers(0, h))
        monotone = rng.random() < 0.5
        spec = random_coverage(n, rng, items=n) if monotone else random_cut(n, rng)
        yield spec, r, h, t


def test_smoothing_lemma_gap_digest():
    values = [v for spec, r, h, t in _smoothing_configs(7)
              for v in smoothing_lemma_gap(spec, r, h, t)]
    digest = hashlib.sha256(",".join(v.hex() for v in values).encode()).hexdigest()
    assert digest == SMOOTHING_GAP_SHA256


# The exact surrogate F(S) of acceptance criterion 08 on its 50 probes:
# n=30 WAQ, H = the first h elements, (h, t) = (25, 5), as float.hex.
SURROGATE_08_SHA256 = "9df21e816f976d7f9e8309876015a9d759de639b052f3887397f50e854bc59db"


def _criterion_08_problem():
    # the draws of test_criterion_08_sampled_surrogate_concentration, in its order
    n = 30
    rng = np.random.default_rng(6)
    spec = random_waq(n, rng)
    g = GroundSet(n)
    order = sorted(range(n), key=lambda i: -spec.weights[i])
    f_max = max(sum(spec.weights[i] for i in order[:k]) - spec.cost * k * k
                for k in range(n + 1))
    params = compute_parameters(ParamBudget(epsilon=3.0 * f_max, delta=0.2, f_max=f_max,
                                            noise=NoiseSpec(Gaussian(0.1))), n)
    probes = [ElementSet(g, int(rng.integers(1 << n))) for _ in range(50)]
    return spec, g.subset(range(params.h)), params.t, probes


def test_criterion_08_exact_surrogate_digest():
    spec, H, t, probes = _criterion_08_problem()
    assert (len(H), t) == (25, 5)
    surrogate = exact_surrogate(spec, H, t)
    values = [surrogate.value(s) for s in probes]
    digest = hashlib.sha256(",".join(v.hex() for v in values).encode()).hexdigest()
    assert digest == SURROGATE_08_SHA256


# The 16 coverage/cut pairs the benchmark's constrained_mix workload draws in
# set-up for seed 1 (n=40, cut density 0.25): the covers and item weights of
# each coverage, then the edges of each cut, with floats as float.hex.
BENCH_INPUTS_SHA256 = "535ca8cc97240a6e87141a229d2c69f8f8791405938e85d375d7b1c90c9729c6"


def _bench_input_text(seed=1, n=40, pairs=16):
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    parts = []
    for _ in range(pairs):
        cover = random_coverage(n, rng)
        cut = random_cut(n, rng, 0.25)
        parts.append(",".join(f"{c:x}" for c in cover.covers))
        parts.append(",".join(w.hex() for w in cover.item_weights))
        parts.append(",".join(f"{u}-{v}-{w.hex()}" for u, v, w in cut.edges))
    return ";".join(parts)


def test_benchmark_input_digest():
    digest = hashlib.sha256(_bench_input_text().encode()).hexdigest()
    assert digest == BENCH_INPUTS_SHA256
