"""Command-line interface.

Subcommands:
  simulate  Monte-Carlo benchmark on random noisy instances (CSV output)
  solve     run one algorithm on an instance file
  check     run the lemma/property suites
  params    print surrogate sizing (h, t, m) for an accuracy budget
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import ExperimentSpec, run_experiment
from .instance_io import _DISTRIBUTIONS, load_instance
from .matroids import UniformMatroid
from .meta import MetaConfig, meta_solve
from .noise import NoiseSpec, PersistentNoisyOracle
from .oracles import ExactOracle
from .sets import GroundSet
from .setfn import evaluate
from .solvers import (DoubleGreedy, Greedy, MeasuredContinuousGreedy,
                      RandomSubset, run_solver)
from .surrogate import ParamBudget, compute_parameters

INNER_SOLVERS = {
    "greedy": Greedy,
    "double-greedy": DoubleGreedy,
    "continuous-greedy": MeasuredContinuousGreedy,
}
# distribution name -> (class, the one parameter, which is also its flag)
NOISE_FLAGS = {name: (cls, fields[0][0]) for name, (cls, fields) in _DISTRIBUTIONS.items()}


def _cmd_simulate(args) -> int:
    spec = ExperimentSpec(
        n=args.n, trials=args.trials, h=args.h, t=args.t,
        m_values=tuple(args.m), sigma2=args.sigma2,
        master_seed=args.seed, workers=args.workers, timing=args.timing)
    result = run_experiment(spec)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.to_csv())
    print(result.table())
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if inst.function is None:
        raise ValueError("instance file has no [function] section")
    ground = GroundSet(inst.function.n)
    matroid = inst.matroid or UniformMatroid(ground, ground.n)
    seed = args.seed if args.seed is not None else (inst.master_seed or 0)
    rng = np.random.default_rng(seed)
    if inst.noise is not None:
        oracle = PersistentNoisyOracle(inst.function, inst.noise,
                                       inst.master_seed if inst.master_seed is not None else seed)
    else:
        oracle = ExactOracle(inst.function)

    if args.algorithm == "meta":
        if inst.noise is None:
            raise ValueError("meta requires a [noise] section in the instance")
        cfg = MetaConfig(h=args.h, t=args.t, m=args.m,
                         inner=INNER_SOLVERS[args.inner](), matroid=matroid)
        solution = meta_solve(oracle, cfg, rng)
    elif args.algorithm == "random":
        size = args.size if args.size is not None else matroid.rank()
        solution = run_solver(RandomSubset(size), oracle, matroid, rng)
    else:
        solution = run_solver(INNER_SOLVERS[args.algorithm](), oracle, matroid, rng)

    members = " ".join(str(i) for i in solution)
    print(f"solution = {members}")
    print(f"size = {len(solution)}")
    print(f"value = {evaluate(inst.function, solution)!r}")
    if inst.noise is not None:
        print(f"noisy_value = {oracle.value(solution)!r}")
    return 0


def _cmd_check(args) -> int:
    from .checks import run_all_checks
    results = run_all_checks(args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        suffix = f"  ({r.detail})" if r.detail and not r.passed else ""
        print(f"{status}  {r.name}{suffix}")
        failed += not r.passed
    return 1 if failed else 0


def _cmd_params(args) -> int:
    distribution, flag = NOISE_FLAGS[args.distribution]
    noise = NoiseSpec(distribution(getattr(args, flag)))
    budget = ParamBudget(epsilon=args.epsilon, delta=args.delta,
                         f_max=args.fmax, noise=noise)
    params = compute_parameters(budget, args.n)
    print(f"h = {params.h}")
    print(f"t = {params.t}")
    print(f"m = {params.m}")
    print(f"fits_ground_set = {'yes' if params.fits_within(args.n) else 'no'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisysubmax",
        description="Submodular maximization with a persistent noisy value oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte-Carlo benchmark on random instances")
    p.add_argument("--n", type=int, required=True, help="ground set size")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--h", type=int, default=20, help="smoothing set size")
    p.add_argument("--t", type=int, default=4, help="smoothing subset size")
    p.add_argument("--m", type=int, nargs="+", default=[50, 200],
                   help="surrogate sample counts (one run per value)")
    p.add_argument("--sigma2", type=float, default=0.1, help="noise variance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = all cores)")
    p.add_argument("--timing", action="store_true",
                   help="record wall time per run in the CSV (breaks byte determinism)")
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("solve", help="run one algorithm on an instance file")
    p.add_argument("instance", help="instance file path")
    p.add_argument("--algorithm",
                   choices=sorted(INNER_SOLVERS) + ["random", "meta"],
                   default="double-greedy")
    p.add_argument("--seed", type=int, default=None,
                   help="algorithm seed (defaults to the instance master seed)")
    p.add_argument("--size", type=int, default=None, help="size for --algorithm random")
    p.add_argument("--h", type=int, default=4, help="meta: smoothing set size")
    p.add_argument("--t", type=int, default=2, help="meta: smoothing subset size")
    p.add_argument("--m", type=int, default=6, help="meta: surrogate sample count")
    p.add_argument("--inner", choices=sorted(INNER_SOLVERS), default="double-greedy",
                   help="meta: wrapped solver")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="run the lemma/property suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("params", help="surrogate sizing for an accuracy budget")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--fmax", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--distribution", choices=list(NOISE_FLAGS), default="gaussian")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--halfwidth", type=float, default=0.5)
    p.add_argument("--rate", type=float, default=1.0)
    p.set_defaults(func=_cmd_params)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  A rejected input (ValueError) or an unreadable file
    (OSError) ends in one stderr line and exit status 2, like a usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
