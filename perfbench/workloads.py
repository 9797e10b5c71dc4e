"""The benchmark's workloads, driven through the public noisysubmax API.

Each workload has a `setup` step (the inputs, plus the worker-pool start
where there is one) and a closed-loop `run` step: the next trial starts
when the previous one (or, on the pool, the previous batch) has ended.
`run` keeps going until both `seconds` have passed and `min_trials` trials
have ended, and checks the output of every trial.
"""
from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

RATIO_TOL = 1e-9
# Greedy is a 1/2-approximation for monotone submodular maximization under
# a matroid, so no feasible set is worth more than twice the greedy value.
GREEDY_BOUND = 2.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Run:
    """What one closed-loop run measured.

    `rss_mb` is read when the first `quality_trials` trials have ended, so
    it covers a fixed amount of work however many trials fit in the run.
    """

    quality_trials: int
    workers: int = 1
    trial_ms: list[float] = field(default_factory=list)
    quality: list[float] = field(default_factory=list)  # per trial, in trial order
    by_algorithm: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return self.attempted - self.failed

    @property
    def busy_share(self) -> float:
        """Share of the workers' wall time spent inside trials; on the pool
        workload this is the pool efficiency."""
        return self.busy_s / (self.workers * self.wall_s)

    def fail(self, count: int, message: str) -> None:
        self.attempted += count
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def add(self, label, ms: float, quality: float, problems: list[str],
            by_algorithm: dict[str, float] | None = None) -> None:
        """Record one trial; a trial with output problems counts as failed."""
        if problems:
            self.fail(1, f"trial {label}: " + "; ".join(problems))
            return
        self.attempted += 1
        self.trial_ms.append(ms)
        self.busy_s += ms / 1e3
        self.quality.append(quality)
        for name, ratio in (by_algorithm or {}).items():
            self.by_algorithm.setdefault(name, []).append(ratio)
        if self.rss_mb is None and len(self.quality) >= self.quality_trials:
            self.rss_mb = peak_rss_mb()


def serial_loop(out: Run, one_trial, seconds: float, min_trials: int) -> Run:
    """Run `one_trial(i)` for i = 0, 1, ... in a closed loop."""
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < min_trials:
        t0 = time.perf_counter()
        try:
            quality, problems, by_algorithm = one_trial(i)
        except Exception as exc:  # a failed trial is counted, not fatal
            quality, problems, by_algorithm = math.nan, [repr(exc)], None
        t1 = time.perf_counter()
        out.add(i, (t1 - t0) * 1e3, quality, problems, by_algorithm)
        i += 1
    out.wall_s = time.perf_counter() - start
    return out


def _derived_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class Unconstrained:
    """The paper's unconstrained benchmark row at ground-set size n: one
    WAQ instance and Gaussian noise world per trial, five algorithms
    (dg_exact, dg_noisy, random, ours_m50, ours_m200) per trial.

    With workers == 1 each trial is one `run_trial` call.  With more, trials
    go through `run_experiment` in batches of `batch` trials on its worker
    pool (a pool per batch, as `run_experiment` starts one per call), and the
    per-trial time is the sum of the algorithm times that
    `run_experiment(timing=True)` records.  The quality of a trial is the
    true-value ratio of ours_m200 against the closed-form optimum.

    `quality_trials` is the number of leading trials `ratio_mean` averages
    over, so that it does not depend on how many trials fit in a run.
    """

    name: str
    n: int
    workers: int
    quality_trials: int
    batch: int = 8

    def setup(self, ns, seed: int):
        spec = ns.ExperimentSpec(n=self.n, trials=self.batch, master_seed=seed,
                                 workers=self.workers, timing=True)
        if self.workers > 1:
            # start and stop the worker pool once on a tiny experiment
            ns.run_experiment(ns.ExperimentSpec(
                n=4, trials=self.workers, h=2, t=1, m_values=(1,),
                master_seed=seed, workers=self.workers))
        return spec

    def run(self, ns, spec, seconds: float, min_trials: int, tracer=None,
            workers: int | None = None) -> Run:
        """`workers` overrides the pool size of a pool workload (1 runs the
        same batches serially, which is how the pool workload is traced)."""
        if self.workers == 1:
            run_trial = ns.harness.run_trial
            return serial_loop(Run(self.quality_trials),
                               lambda i: self._judge(spec, run_trial(spec, i)),
                               seconds, min_trials)
        return self._run_batches(ns, spec, seconds, min_trials,
                                 self.workers if workers is None else workers)

    def _judge(self, spec, records):
        """(quality, problems, ratio by algorithm) of one trial's records."""
        ratios = {r.algorithm: r.ratio for r in records}
        problems = [f"{name}: ratio {ratio!r} outside [0, 1]" for name, ratio in ratios.items()
                    if not (math.isfinite(ratio) and -RATIO_TOL <= ratio <= 1.0 + RATIO_TOL)]
        best = f"ours_m{max(spec.m_values)}"
        if best not in ratios:
            problems.append(f"no {best} record")
        return ratios.get(best, math.nan), problems, ratios

    def _run_batches(self, ns, spec, seconds, min_trials, workers) -> Run:
        out = Run(self.quality_trials, workers=workers)
        start = time.perf_counter()
        batch = 0
        while time.perf_counter() - start < seconds or out.attempted < min_trials:
            batch_spec = replace(spec, workers=workers,
                                 master_seed=_derived_seed(spec.master_seed, batch))
            try:
                result = ns.run_experiment(batch_spec)
            except Exception as exc:  # a failed batch is counted, not fatal
                out.fail(batch_spec.trials, f"batch {batch}: {exc!r}")
            else:
                by_trial: dict[int, list] = {t: [] for t in range(batch_spec.trials)}
                for r in result.records:
                    by_trial[r.trial].append(r)
                for trial, records in by_trial.items():
                    ms = sum(r.seconds for r in records) * 1e3
                    out.add(f"{batch}.{trial}", ms, *self._judge(spec, records))
            batch += 1
        out.wall_s = time.perf_counter() - start
        return out


@dataclass(frozen=True)
class ConstrainedMix:
    """Four solves per trial on n=40 under a partition matroid:

    * exact greedy (`run_solver(Greedy())`) on a coverage instance, the
      quality reference;
    * `meta_solve` with the Greedy inner on that coverage instance under
      BoundedUniform noise;
    * exact `measured_continuous_greedy` + `pipage_round` on a cut instance;
    * `best_of_T` (DoubleGreedy inner) on that cut under ShiftedExponential
      noise.

    `instances` coverage/cut pairs are generated during set-up; trial i uses
    pair i mod `instances` with its own noise seeds and solver randomness.
    The quality of a trial is the meta solution's true value over the exact
    greedy value.
    """

    name: str = "constrained_mix"
    n: int = 40
    parts: int = 5
    cap: int = 3
    instances: int = 16
    cut_density: float = 0.25
    h: int = 8
    t: int = 2
    m_cover: int = 20
    m_cut: int = 10
    best_of: int = 3
    mcg_step: float = 0.1
    mcg_samples: int = 4
    halfwidth: float = 0.5
    exp_rate: float = 2.0
    quality_trials: int = 32
    workers: int = 1

    def setup(self, ns, seed: int):
        from noisysubmax.random_instances import random_coverage, random_cut

        rng = np.random.default_rng(np.random.SeedSequence([seed, self.n]))
        pairs = [(random_coverage(self.n, rng), random_cut(self.n, rng, self.cut_density))
                 for _ in range(self.instances)]
        ground = ns.GroundSet(self.n)
        size = self.n // self.parts
        part_masks = tuple(((1 << size) - 1) << (p * size) for p in range(self.parts))
        part_masks = part_masks[:-1] + (ground.full_mask & ~sum(part_masks[:-1]),)
        matroid = ns.PartitionMatroid(ground, part_masks, (self.cap,) * self.parts)
        return {
            "seed": seed,
            "pairs": pairs,
            "matroid": matroid,
            "meta_cover": ns.MetaConfig(h=self.h, t=self.t, m=self.m_cover,
                                        inner=ns.Greedy(), matroid=matroid),
            "meta_cut": ns.MetaConfig(h=self.h, t=self.t, m=self.m_cut,
                                      inner=ns.DoubleGreedy(), matroid=matroid),
            "mcg": ns.MeasuredContinuousGreedy(step=self.mcg_step,
                                               partial_samples=self.mcg_samples),
            "cover_noise": ns.NoiseSpec(ns.BoundedUniform(self.halfwidth)),
            "cut_noise": ns.NoiseSpec(ns.ShiftedExponential(self.exp_rate)),
        }

    def trial(self, ns, state, i: int):
        """One trial: (quality ratio, output problems, None)."""
        cover, cut = state["pairs"][i % len(state["pairs"])]
        matroid = state["matroid"]
        ss = np.random.SeedSequence([state["seed"], self.n, i])
        rngs = [np.random.default_rng(child) for child in ss.spawn(4)]
        noise_seeds = ss.generate_state(2, dtype=np.uint64)

        reference = ns.run_solver(ns.Greedy(), ns.ExactOracle(cover), matroid, rngs[0])
        noisy_cover = ns.PersistentNoisyOracle(cover, state["cover_noise"], int(noise_seeds[0]))
        meta = ns.meta_solve(noisy_cover, state["meta_cover"], rngs[1])
        x = ns.measured_continuous_greedy(ns.ExactOracle(cut), matroid, state["mcg"], rngs[2])
        rounded = ns.pipage_round(matroid, x, rngs[2])
        noisy_cut = ns.PersistentNoisyOracle(cut, state["cut_noise"], int(noise_seeds[1]))
        best = ns.best_of_T(noisy_cut, state["meta_cut"], self.best_of, rngs[3])

        problems = []
        for label, s in (("greedy", reference), ("meta", meta),
                         ("pipage", rounded), ("best_of_T", best)):
            if not ns.is_independent(matroid, s):
                problems.append(f"{label}: dependent set")
        ref_value = ns.evaluate(cover, reference)
        ratio = ns.evaluate(cover, meta) / ref_value if ref_value > 0 else math.nan
        if not math.isfinite(ratio) or not 0.0 <= ratio <= GREEDY_BOUND + RATIO_TOL:
            problems.append(f"meta/greedy ratio {ratio!r} outside [0, {GREEDY_BOUND}]")
        for label, s in (("pipage", rounded), ("best_of_T", best)):
            if not math.isfinite(ns.evaluate(cut, s)):
                problems.append(f"{label}: non-finite cut value")
        return ratio, problems, None

    def run(self, ns, state, seconds: float, min_trials: int, tracer=None,
            workers: int | None = None) -> Run:
        def one_trial(i):
            if tracer is not None:
                tracer.begin_trial(i)
            return self.trial(ns, state, i)
        return serial_loop(Run(self.quality_trials), one_trial, seconds, min_trials)
