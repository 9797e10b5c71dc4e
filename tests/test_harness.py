import numpy as np
import pytest

from noisysubmax.harness import (ExperimentSpec, generate_instance,
                                 nonnegative_certified, optimum_exact,
                                 run_experiment, run_trial)
from noisysubmax.setfn import (WeightedAdditiveQuadratic, brute_force_opt,
                               value_table)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(n=10, trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(n=0, trials=1)
    spec = ExperimentSpec(n=50, trials=1)
    assert spec.cost == pytest.approx(10.0 / 50)


def test_negative_worker_counts_are_rejected():
    ExperimentSpec(n=10, trials=1, workers=0)
    for workers in (-1, -3):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            ExperimentSpec(n=10, trials=1, workers=workers)


def test_nonnegative_certified_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = 10
        w = rng.uniform(0, 20, size=n)
        cost = 1.0
        fn = WeightedAdditiveQuadratic(weights=tuple(float(x) for x in w), cost=cost)
        truth = bool(np.min(value_table(fn)) >= 0.0)
        assert nonnegative_certified(w, cost) == truth


def test_generate_instance_certified_and_reproducible():
    spec = ExperimentSpec(n=30, trials=1)
    fn1, o1 = generate_instance(spec, 0, np.random.default_rng(42))
    fn2, o2 = generate_instance(spec, 0, np.random.default_rng(42))
    assert fn1 == fn2
    assert o1.master_seed == o2.master_seed
    assert nonnegative_certified(np.array(fn1.weights), fn1.cost)


def test_optimum_exact_examples():
    _, v = optimum_exact(WeightedAdditiveQuadratic(weights=(5.0, 5.0), cost=2.0))
    assert v == pytest.approx(3.0)
    _, v = optimum_exact(WeightedAdditiveQuadratic(weights=(10.0, 10.0), cost=5.0))
    assert v == pytest.approx(5.0)
    with pytest.raises(TypeError):
        from noisysubmax.setfn import Modular
        optimum_exact(Modular(weights=(1.0,)))


def test_optimum_exact_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = 16
        w = rng.uniform(0, 20, size=n)
        fn = WeightedAdditiveQuadratic(weights=tuple(float(x) for x in w),
                                       cost=float(rng.uniform(0.1, 2.0)))
        s, v = optimum_exact(fn)
        bs, bv = brute_force_opt(fn)
        assert v == pytest.approx(bv, abs=1e-9)


def test_run_trial_structure():
    spec = ExperimentSpec(n=20, trials=1, h=5, t=2, m_values=(3,))
    records = run_trial(spec, 0)
    names = [r.algorithm for r in records]
    assert names == ["dg_exact", "dg_noisy", "random", "ours_m3"]
    for r in records:
        assert np.isfinite(r.ratio)
    exact = [r for r in records if r.algorithm == "dg_exact"][0]
    assert exact.ratio <= 1.0 + 1e-9


def test_exact_ratios_never_exceed_one():
    spec = ExperimentSpec(n=25, trials=10, h=5, t=2, m_values=(4,))
    result = run_experiment(spec)
    for r in result.records:
        if r.algorithm in ("dg_exact", "random"):
            assert r.ratio <= 1.0 + 1e-9


def test_summary_uses_sample_std():
    spec = ExperimentSpec(n=15, trials=5, h=4, t=1, m_values=(2,))
    result = run_experiment(spec)
    name, mean, std = result.summary()[0]
    ratios = np.array([r.ratio for r in result.records if r.algorithm == name])
    assert mean == pytest.approx(float(np.mean(ratios)))
    assert std == pytest.approx(float(np.std(ratios, ddof=1)))


def test_csv_format_and_timing_flag():
    spec = ExperimentSpec(n=15, trials=3, h=4, t=1, m_values=(2,))
    csv_text = run_experiment(spec).to_csv()
    lines = csv_text.splitlines()
    assert lines[0].startswith("#")
    assert "algorithm,trial,ratio,seconds" in csv_text
    data = [ln for ln in lines if ln.startswith("dg_exact,")]
    assert all(ln.endswith(",") for ln in data)  # seconds empty by default
    timed = ExperimentSpec(n=15, trials=3, h=4, t=1, m_values=(2,), timing=True)
    timed_csv = run_experiment(timed).to_csv()
    timed_data = [ln for ln in timed_csv.splitlines() if ln.startswith("dg_exact,")]
    assert not any(ln.endswith(",") for ln in timed_data)


def test_determinism_across_worker_counts():
    base = dict(n=18, trials=6, h=4, t=1, m_values=(3,), master_seed=5)
    serial = run_experiment(ExperimentSpec(workers=1, **base)).to_csv()
    parallel = run_experiment(ExperimentSpec(workers=3, **base)).to_csv()
    again = run_experiment(ExperimentSpec(workers=1, **base)).to_csv()
    assert serial == parallel == again


class _SerialPool:
    """A stand-in for multiprocessing.Pool that records its size and maps in
    this process, so that a test of the pool size starts no process."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


def test_pool_has_no_more_workers_than_trials(monkeypatch):
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    base = dict(n=8, h=2, t=1, m_values=(1,), master_seed=3)
    for trials, workers in ((2, 64), (3, 3), (5, 2)):
        run_experiment(ExperimentSpec(trials=trials, workers=workers, **base))
    # one trial or one worker runs serially, without a pool
    run_experiment(ExperimentSpec(trials=1, workers=8, **base))
    run_experiment(ExperimentSpec(trials=4, workers=1, **base))
    assert _SerialPool.sizes == [2, 3, 2]


def test_different_seeds_differ():
    a = run_experiment(ExperimentSpec(n=15, trials=3, h=4, t=1, m_values=(2,),
                                      master_seed=0)).to_csv()
    b = run_experiment(ExperimentSpec(n=15, trials=3, h=4, t=1, m_values=(2,),
                                      master_seed=1)).to_csv()
    assert a != b


def test_table_output():
    spec = ExperimentSpec(n=15, trials=2, h=4, t=1, m_values=(2,))
    text = run_experiment(spec).table()
    assert "dg_exact" in text and "ours_m2" in text
