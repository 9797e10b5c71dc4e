"""Monte-Carlo experiment runner for the noisy unconstrained benchmark.

Instances are weighted-additive-with-quadratic-cost functions with
weights ~ Uniform[0, 20], cost 10 / n, and Gaussian multiplicative
noise.  Each trial samples a fresh instance and noise world, runs every
algorithm once, and records the true-value ratio against the closed-form
optimum.
"""
from __future__ import annotations

import csv
import io
import operator
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .matroids import UniformMatroid
from .meta import MetaConfig, meta_solve
from .noise import Gaussian, NoiseSpec, PersistentNoisyOracle
from .oracles import ExactOracle
from .sets import ElementSet, random_k_subset
from .setfn import (WAQ_WEIGHT_HIGH, WeightedAdditiveQuadratic, nonnegative_certified,
                    waq_cost)
from .solvers import DoubleGreedy, double_greedy
from .surrogate import check_surrogate_sizes

RESAMPLE_LIMIT = 10_000


@dataclass(frozen=True)
class ExperimentSpec:
    n: int
    trials: int
    h: int = 20
    t: int = 4
    m_values: tuple[int, ...] = (50, 200)
    sigma2: float = 0.1
    master_seed: int = 0
    workers: int = 0  # 0 means available parallelism
    timing: bool = False

    def __post_init__(self):
        for name in ("n", "trials", "h", "t", "master_seed", "workers"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        m_values = tuple(operator.index(m) for m in self.m_values)
        if len(set(m_values)) != len(m_values):
            raise ValueError(f"m_values must be distinct, got {m_values}")
        object.__setattr__(self, "m_values", m_values)
        Gaussian(self.sigma2)  # rejects a NaN, infinite or negative variance
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 means available parallelism), "
                             f"got {self.workers}")
        # the sizes every ours_m* run would reject, found before any trial runs
        if self.h > self.n:
            raise ValueError(f"h={self.h} exceeds the ground set size n={self.n}")
        for m in self.m_values:
            check_surrogate_sizes(self.h, self.t, m)

    @property
    def cost(self) -> float:
        return waq_cost(self.n)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    algorithm: str
    ratio: float
    seconds: float


def generate_instance(spec: ExperimentSpec, rng: np.random.Generator):
    """Fresh non-negative-certified instance and noise world for one trial."""
    for _ in range(RESAMPLE_LIMIT):
        weights = rng.uniform(0.0, WAQ_WEIGHT_HIGH, size=spec.n)
        if nonnegative_certified(weights, spec.cost):
            break
    else:
        raise RuntimeError(f"non-negativity resampling exceeded {RESAMPLE_LIMIT} attempts")
    fn = WeightedAdditiveQuadratic(weights=tuple(float(w) for w in weights), cost=spec.cost)
    noise_seed = int(rng.integers(0, 2**63))
    oracle = PersistentNoisyOracle(fn, NoiseSpec(Gaussian(spec.sigma2)), noise_seed)
    return fn, oracle


def optimum_exact(fn: WeightedAdditiveQuadratic) -> tuple[ElementSet, float]:
    """The WAQ's closed-form optimum, scored against in every trial."""
    return fn.optimum()


def _algorithm_names(spec: ExperimentSpec) -> list[str]:
    return ["dg_exact", "dg_noisy", "random"] + [f"ours_m{m}" for m in spec.m_values]


def run_trial(spec: ExperimentSpec, trial: int) -> list[TrialRecord]:
    ss = np.random.SeedSequence([spec.master_seed, trial])
    names = _algorithm_names(spec)
    children = ss.spawn(1 + len(names))
    instance_rng = np.random.Generator(np.random.PCG64(children[0]))
    fn, noisy = generate_instance(spec, instance_rng)
    exact = ExactOracle(fn)
    _, opt_val = optimum_exact(fn)
    ground = exact.ground
    full_matroid = UniformMatroid(ground, ground.n)
    records = []
    for name, child in zip(names, children[1:]):
        rng = np.random.Generator(np.random.PCG64(child))
        start = time.perf_counter()
        if name == "dg_exact":
            sol = double_greedy(exact, ground, rng)
        elif name == "dg_noisy":
            sol = double_greedy(noisy, ground, rng)
        elif name == "random":
            sol = random_k_subset(ground.full_set(), ground.n // 2, rng)
        else:
            m = int(name.removeprefix("ours_m"))
            cfg = MetaConfig(h=spec.h, t=spec.t, m=m, inner=DoubleGreedy(),
                             matroid=full_matroid)
            sol = meta_solve(noisy, cfg, rng)
        seconds = time.perf_counter() - start
        ratio = exact.value(sol) / opt_val
        records.append(TrialRecord(trial, name, ratio, seconds))
    return records


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    records: list[TrialRecord] = field(default_factory=list)

    def summary(self) -> list[tuple[str, float, float]]:
        """(algorithm, mean ratio, sample std) in declared algorithm order."""
        out = []
        for name in _algorithm_names(self.spec):
            ratios = np.array([r.ratio for r in self.records if r.algorithm == name])
            std = float(np.std(ratios, ddof=1)) if len(ratios) > 1 else 0.0
            out.append((name, float(np.mean(ratios)), std))
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        s = self.spec
        buf.write(f"# simulate n={s.n} trials={s.trials} h={s.h} t={s.t} "
                  f"m={','.join(map(str, s.m_values))} sigma2={s.sigma2!r} "
                  f"seed={s.master_seed}\n")
        buf.write("# summary std uses the (trials-1) divisor\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["algorithm", "trial", "ratio", "seconds"])
        order = {name: i for i, name in enumerate(_algorithm_names(s))}
        for r in sorted(self.records, key=lambda r: (r.trial, order[r.algorithm])):
            seconds = repr(r.seconds) if s.timing else ""
            writer.writerow([r.algorithm, r.trial, repr(r.ratio), seconds])
        for name, mean, std in self.summary():
            writer.writerow(["summary", name, repr(mean), repr(std)])
        return buf.getvalue()

    def table(self) -> str:
        rows = self.summary()
        width = max(len(name) for name, _, _ in rows)
        lines = [f"{'algorithm':<{width}}  {'mean':>8}  {'std':>8}"]
        for name, mean, std in rows:
            lines.append(f"{name:<{width}}  {mean:8.3f}  {std:8.3f}")
        return "\n".join(lines)


def _worker(args) -> list[TrialRecord]:
    spec, trial = args
    return run_trial(spec, trial)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run all trials (optionally across a worker pool) and aggregate.

    Per-trial seeds derive from (master_seed, trial), so the result is
    identical for any worker count and any start method of the pool, and
    the pool has no more workers than trials.  Each trial is one pool task,
    so no worker waits at the end while another runs a chunk of trials.
    """
    workers = min(spec.workers or os.cpu_count() or 1, spec.trials)
    result = ExperimentResult(spec)
    if workers == 1:
        for trial in range(spec.trials):
            result.records.extend(run_trial(spec, trial))
    else:
        import multiprocessing as mp
        with mp.Pool(workers) as pool:
            for recs in pool.map(_worker, [(spec, t) for t in range(spec.trials)], chunksize=1):
                result.records.extend(recs)
    return result
