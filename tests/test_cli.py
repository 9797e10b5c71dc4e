import subprocess
import sys

import pytest

from noisysubmax.cli import main
from noisysubmax.instance_io import Instance, save_instance
from noisysubmax.matroids import UniformMatroid
from noisysubmax.noise import BoundedUniform, Gaussian, NoiseSpec, ShiftedExponential
from noisysubmax.sets import GroundSet
from noisysubmax.setfn import Modular, WeightedAdditiveQuadratic
from noisysubmax.surrogate import ParamBudget, compute_parameters


def test_params_reference_output(capsys):
    rc = main(["params", "--epsilon", "1", "--delta", "0.04", "--fmax", "1",
               "--n", "10", "--distribution", "gaussian", "--sigma2", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "h = 81" in out and "t = 9" in out and "m = 117" in out
    assert "fits_ground_set = no" in out


@pytest.mark.parametrize("name, flag, cls", [("gaussian", "sigma2", Gaussian),
                                             ("bounded_uniform", "halfwidth", BoundedUniform),
                                             ("shifted_exponential", "rate", ShiftedExponential)])
def test_params_reads_each_distribution_from_its_flag(name, flag, cls, capsys):
    budget = ParamBudget(epsilon=1.0, delta=0.04, f_max=1.0, noise=NoiseSpec(cls(0.75)))
    want = compute_parameters(budget, 10)
    assert main(["params", "--epsilon", "1", "--delta", "0.04", "--fmax", "1", "--n", "10",
                 "--distribution", name, f"--{flag}", "0.75"]) == 0
    out = capsys.readouterr().out
    assert f"h = {want.h}\nt = {want.t}\nm = {want.m}\n" in out


def _assert_rejected(capsys, rc, message):
    """A rejected input exits with status 2 and one error line on stderr."""
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("noisysubmax: error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "-100"])
def test_params_rejects_an_empty_ground_set(n, capsys):
    rc = main(["params", "--epsilon", "1", "--delta", "0.04", "--fmax", "1",
               "--n", n, "--distribution", "gaussian", "--sigma2", "1"])
    _assert_rejected(capsys, rc, "ground set size must be >= 1")


def test_simulate_rejects_a_negative_worker_count(capsys):
    rc = main(["simulate", "--n", "5", "--trials", "1", "--workers", "-2"])
    _assert_rejected(capsys, rc, "workers must be >= 0")


@pytest.mark.parametrize("args, message", [
    (["simulate", "--n", "20", "--trials", "2", "--h", "4", "--t", "1", "--m", "2", "2",
      "--workers", "1"], "m_values must be distinct"),
    (["solve", "{tmp}/missing-instance.txt"], "missing-instance.txt"),
    (["solve", "{tmp}/mismatch.txt", "--algorithm", "greedy"],
     "matroid over a ground set of size 5, oracle over size 10"),
    (["solve", "{tmp}/mismatch.txt", "--algorithm", "meta"],
     "matroid over a ground set of size 5, oracle over size 10"),
])
def test_rejected_input_ends_in_one_line_without_a_traceback(args, message, tmp_path):
    # a [matroid] over 5 elements under a 10-element [function]
    save_instance(tmp_path / "mismatch.txt",
                  Instance(function=Modular(weights=tuple(float(i) for i in range(10))),
                           matroid=UniformMatroid(GroundSet(5), 5),
                           noise=NoiseSpec(Gaussian(0.05)), master_seed=4))
    args = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, "-m", "noisysubmax", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("noisysubmax: error: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["simulate", "--n", "15", "--trials", "3", "--h", "4", "--t", "1",
               "--m", "2", "--seed", "0", "--workers", "1", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "algorithm,trial,ratio,seconds" in text
    stdout = capsys.readouterr().out
    assert "dg_exact" in stdout


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--n", "15", "--trials", "3", "--h", "4", "--t", "1",
            "--m", "2", "--seed", "3", "--workers", "1"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_exact(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    g = GroundSet(3)
    save_instance(path, Instance(function=Modular(weights=(3.0, -1.0, 2.0)),
                                 matroid=UniformMatroid(g, 2)))
    rc = main(["solve", str(path), "--algorithm", "greedy"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solution = 0 2" in out
    assert "value = 5.0" in out


def test_solve_meta_with_noise(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    g = GroundSet(10)
    fn = WeightedAdditiveQuadratic(weights=tuple(float(5 + i) for i in range(10)),
                                  cost=0.3)
    save_instance(path, Instance(function=fn, matroid=UniformMatroid(g, 10),
                                 noise=NoiseSpec(Gaussian(0.05)), master_seed=4))
    rc = main(["solve", str(path), "--algorithm", "meta", "--h", "3", "--t", "1",
               "--m", "3", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "noisy_value" in out


def test_solve_meta_requires_noise(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    save_instance(path, Instance(function=Modular(weights=(1.0, 2.0))))
    rc = main(["solve", str(path), "--algorithm", "meta"])
    _assert_rejected(capsys, rc, "meta requires a [noise] section")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "noisysubmax", "params",
                           "--epsilon", "1", "--delta", str(4 / 2.718281828459045**4),
                           "--fmax", "1", "--n", "1",
                           "--distribution", "gaussian", "--sigma2", "0.25"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "h = 36" in proc.stdout and "t = 6" in proc.stdout and "m = 10" in proc.stdout


def test_check_command_exit_code(capsys, monkeypatch):
    from noisysubmax import checks

    def fake_checks(seed):
        return [checks.CheckResult("alpha", True),
                checks.CheckResult("beta", False, "detail")]

    monkeypatch.setattr(checks, "run_all_checks", fake_checks)
    rc = main(["check", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "PASS  alpha" in out and "FAIL  beta" in out
