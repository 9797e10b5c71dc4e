import numpy as np
import pytest

from noisysubmax.harness import (ExperimentSpec, generate_instance,
                                 optimum_exact, run_experiment, run_trial)
from noisysubmax.random_instances import nonnegative_certified, random_waq, waq_cost
from noisysubmax.setfn import (Coverage, CutFunction, Modular, WeightedAdditiveQuadratic,
                               brute_force_opt, value_table)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(n=10, trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(n=0, trials=1)
    ExperimentSpec(n=50, trials=1)


def test_the_waq_generator_and_the_spec_take_the_cost_from_waq_cost():
    for n in (1, 7, 50, 100):
        cost = waq_cost(n)
        assert cost == (20.0 / 2.0) / n
        assert random_waq(n, np.random.default_rng(n)).cost == cost


def test_negative_worker_counts_are_rejected():
    ExperimentSpec(n=20, trials=1, workers=0)
    for workers in (-1, -3):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            ExperimentSpec(n=20, trials=1, workers=workers)


@pytest.mark.parametrize("sizes, message", [
    (dict(n=10), "h=20 exceeds the ground set size n=10"),
    (dict(n=20, h=6, t=6), "need 0 <= t < h"),
    (dict(n=20, m_values=(50, 0)), "need m >= 1"),
    (dict(n=20, h=5, t=2, m_values=(4, 11)), "m=11 exceeds C"),
    (dict(n=20, h=0, t=1, m_values=(1,)), "degenerate surrogate"),
])
def test_spec_rejects_surrogate_sizes_when_built(sizes, message):
    # before, these failed only inside a trial, after its other algorithms ran
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(trials=2, workers=1, **sizes)


@pytest.mark.parametrize("field, value", [
    ("n", 20.5), ("trials", 2.0), ("h", 4.0), ("t", 1.5), ("m_values", (2, 3.0)),
    ("workers", 1.0), ("master_seed", 2.5),
])
def test_spec_rejects_non_integer_sizes(field, value):
    sizes = dict(n=20, trials=2, h=4, t=1, m_values=(2, 3), workers=1)
    with pytest.raises(TypeError):
        ExperimentSpec(**{**sizes, field: value})


def test_spec_takes_integer_sizes_as_ints():
    spec = ExperimentSpec(n=np.int64(20), trials=np.int32(2), h=np.int64(4), t=np.int8(1),
                          m_values=[np.int64(2), 3], master_seed=np.int64(7),
                          workers=np.uint8(1))
    assert spec == ExperimentSpec(n=20, trials=2, h=4, t=1, m_values=(2, 3), master_seed=7,
                                  workers=1)
    assert all(type(v) is int for v in (spec.n, spec.trials, spec.h, spec.t, spec.master_seed,
                                        spec.workers, *spec.m_values))


def test_spec_rejects_a_negative_seed():
    # before, the spec was built and the first trial's seeding raised
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        ExperimentSpec(n=20, trials=2, h=4, t=1, m_values=(2,), master_seed=-1, workers=1)


def test_spec_rejects_repeated_m_values():
    # each ours_m5 summary row would pool the records of both runs
    with pytest.raises(ValueError, match="m_values must be distinct"):
        ExperimentSpec(n=20, trials=2, h=4, t=1, m_values=(2, 2), workers=1)


@pytest.mark.parametrize("sigma2", [-0.1, float("nan"), float("inf")])
def test_spec_rejects_a_bad_noise_variance(sigma2):
    # before, the spec was built and every trial raised
    with pytest.raises(ValueError, match="sigma2 must be finite and >= 0"):
        ExperimentSpec(n=20, trials=2, h=4, t=1, m_values=(2,), sigma2=sigma2, workers=1)


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
    fn1, o1 = generate_instance(spec, np.random.default_rng(42))
    fn2, o2 = generate_instance(spec, np.random.default_rng(42))
    assert fn1 == fn2
    assert o1.master_seed == o2.master_seed
    assert nonnegative_certified(np.array(fn1.weights), fn1.cost)


def test_optimum_exact_examples():
    _, v = optimum_exact(WeightedAdditiveQuadratic(weights=(5.0, 5.0), cost=2.0))
    assert v == pytest.approx(3.0)
    _, v = optimum_exact(WeightedAdditiveQuadratic(weights=(10.0, 10.0), cost=5.0))
    assert v == pytest.approx(5.0)
    # only the WAQ family has a closed-form optimum
    for other in (Coverage((0b1, 0b11), (1.0, 2.0)), CutFunction(2, ((0, 1, 1.0),))):
        with pytest.raises(AttributeError):
            optimum_exact(other)
    # `Modular` is the WAQ with cost 0, whose closed form is exact too
    w = tuple(float(x) for x in np.random.default_rng(4).uniform(-5.0, 5.0, size=12))
    s, v = optimum_exact(Modular(w))
    bs, bv = brute_force_opt(Modular(w))
    assert v == pytest.approx(bv, abs=1e-9) and s == bs
    with pytest.raises(TypeError):
        Modular(w, 1.0)


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


def test_optimum_is_the_brute_force_set_and_value_under_ties():
    # Integer weights make the sums exact and tie often.  Brute force keeps
    # the lowest mask, the closed form the smallest best k with ties by id;
    # both pick the same set.
    rng = np.random.default_rng(21)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        weights = tuple(float(w) for w in rng.integers(-3, 6, size=n))
        cost = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        fn = Modular(weights) if cost == 0.0 else WeightedAdditiveQuadratic(weights, cost)
        assert fn.optimum() == brute_force_opt(fn)


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
    """A stand-in for multiprocessing.Pool that records its size and chunk
    sizes and maps in this process, so that a test of the pool size starts
    no process."""

    sizes: list[int] = []
    chunksizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksizes.append(chunksize)
        return [fn(item) for item in items]


def test_pool_has_no_more_workers_than_trials(monkeypatch):
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "chunksizes", [])
    base = dict(n=8, h=2, t=1, m_values=(1,), master_seed=3)
    for trials, workers in ((2, 64), (3, 3), (5, 2), (40, 2)):
        run_experiment(ExperimentSpec(trials=trials, workers=workers, **base))
    # one trial or one worker runs serially, without a pool
    run_experiment(ExperimentSpec(trials=1, workers=8, **base))
    run_experiment(ExperimentSpec(trials=4, workers=1, **base))
    assert _SerialPool.sizes == [2, 3, 2, 2]
    # each trial is one task, so no worker idles at the end behind a chunk
    assert _SerialPool.chunksizes == [1, 1, 1, 1]


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


def test_timing_must_be_a_bool():
    # the string "no" is true, so it once wrote wall times into the
    # byte-stable CSV
    sizes = dict(n=10, trials=1, h=1, t=0, m_values=(1,), workers=1)
    for bad in ("no", None, 0, 1):
        with pytest.raises(TypeError, match="timing must be True or False"):
            ExperimentSpec(**sizes, timing=bad)
    for flag in (True, False, np.True_, np.False_):
        got = ExperimentSpec(**sizes, timing=flag).timing
        assert type(got) is bool and got == flag


def test_sigma2_is_a_python_float_in_the_csv_header():
    # a numpy scalar was written as `sigma2=np.float64(0.1)`, an int as `sigma2=1`
    sizes = dict(n=10, trials=1, h=1, t=0, m_values=(1,), workers=1)
    for value, text in ((np.float64(0.1), "sigma2=0.1 "), (1, "sigma2=1.0 "), (0.1, "sigma2=0.1 ")):
        spec = ExperimentSpec(**sizes, sigma2=value)
        assert type(spec.sigma2) is float
        assert text in run_experiment(spec).to_csv().splitlines()[0]
