"""Per-layer tracing of noisysubmax, done from outside the package.

`Tracer` replaces the public functions and methods of each layer module
with timing wrappers while it is active, and puts the originals back on
exit.  A function imported by name into other modules (`evaluate_mask`
into `noise`, `oracles` and `surrogate`, `double_greedy` into `harness`,
...) is replaced in every loaded `noisysubmax` module that holds it.

Each wrapped call is one span.  Its self time is its duration minus the
time covered by its child spans, so the self times of all layers plus the
benchmark's own root span add up to the traced wall time.  Spans of the
per-query leaf layers (the oracles' `value_mask`, `multiplier_mask`,
`evaluate_mask`) are only counted and timed, since a run makes millions
of them; every other span is kept in memory and written out by
`write_spans` when the run ends.

While tracing, the wrappers also check the paper's query accounting:
a `double_greedy` pass over k elements makes 2 + 2k oracle queries when
no matroid forces removals (between 2 + k and 2 + 2k when one does), a
sampled surrogate value makes exactly m inner queries, and each oracle
query evaluates the set function exactly once.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

PACKAGE = "noisysubmax"

# (module, attribute, span name, kind).  A kind of "query" marks an oracle
# query, counted against the calling span; "eval" and "mult" mark the set
# function and noise-multiplier evaluations inside one query.
LAYERS = (
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "generate_instance", "harness.generate_instance", None),
    ("harness", "optimum_exact", "harness.optimum_exact", None),
    ("meta", "meta_solve", "meta.meta_solve", None),
    ("meta", "best_of_T", "meta.best_of_T", None),
    ("meta", "comparison_surrogate_f0", "meta.comparison_surrogate_f0", None),
    ("solvers", "run_solver", "solvers.run_solver", None),
    ("solvers", "double_greedy", "solvers.double_greedy", None),
    ("solvers", "greedy_cardinality", "solvers.greedy_cardinality", None),
    ("solvers", "measured_continuous_greedy", "solvers.measured_continuous_greedy", None),
    ("solvers", "pipage_round", "solvers.pipage_round", None),
    ("matroids", "contract", "matroids.contract", None),
    ("matroids", "arbitrary_basis", "matroids.arbitrary_basis", None),
    ("matroids", "max_weight_independent_set", "matroids.max_weight_independent_set", None),
    ("surrogate", "SurrogateConfig.draw", "surrogate.SurrogateConfig.draw", None),
    ("surrogate", "SampledSurrogateOracle.value_mask",
     "surrogate.SampledSurrogateOracle.value_mask", "query"),
    ("noise", "PersistentNoisyOracle.value_mask", "noise.value_mask", "query"),
    ("noise", "PersistentNoisyOracle.multiplier_mask", "noise.multiplier_mask", "mult"),
    ("oracles", "ExactOracle.value_mask", "oracles.ExactOracle.value_mask", "query"),
    ("setfn", "evaluate_mask", "setfn.evaluate_mask", "eval"),
)

# evaluate_mask spans are split by set-function family.
FAMILIES = (("WeightedAdditiveQuadratic", "waq"), ("Coverage", "coverage"),
            ("CutFunction", "cut"), ("Modular", "modular"))

LEAF_SPANS = {"noise.value_mask", "noise.multiplier_mask",
              "oracles.ExactOracle.value_mask", "setfn.evaluate_mask"}

ROOT = "bench.loop"

# frame slots: child time, direct child queries, evaluations, multipliers, span id
_CHILD, _QUERY, _EVAL, _MULT, _ID = range(5)
_KIND_SLOT = {None: None, "query": _QUERY, "eval": _EVAL, "mult": _MULT}


def span_names() -> list[str]:
    """Every span name the tracer reports, the root span first."""
    names = [ROOT]
    for _, _, name, _ in LAYERS:
        if name == "setfn.evaluate_mask":
            names.extend(f"{name}.{short}" for _, short in FAMILIES)
        else:
            names.append(name)
    return names


def _package_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager that wraps the layer functions while active."""

    def __init__(self):
        self.names = span_names()
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.spans: list[tuple] = []
        self.violations: Counter = Counter()
        self.patched: dict[str, list[str]] = {}
        self.distinct: set = set()
        self.distinct_total = 0
        self.trial = None
        self.wall_ns = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._next_id = 1

    # -- trial boundaries -------------------------------------------------

    def begin_trial(self, label) -> None:
        """Mark the start of a trial: spans record it, and distinct masks
        are counted per trial, since each trial has its own noise world.

        Clearing the mask set is the tracer's own work, so its time is moved
        from the span that happens to be open to the root span."""
        t0 = time.perf_counter_ns()
        self.distinct_total += len(self.distinct)
        self.distinct.clear()
        self.trial = label
        if self._stack:
            spent = time.perf_counter_ns() - t0
            self._stack[-1][_CHILD] += spent
            self.self_ns[0] += spent

    def distinct_masks(self) -> int:
        return self.distinct_total + len(self.distinct)

    # -- install / remove -------------------------------------------------

    def __enter__(self):
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        for modname, attr, name, kind in LAYERS:
            module = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, kind))
                else:
                    wrapped = self._wrap(raw, name, kind)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                self.patched[name] = [f"{modname}.{cls_name}"]
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, kind)
            holders = []
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
                        holders.append(mod.__name__.rsplit(".", 1)[-1])
            self.patched[name] = holders
        self._stack.append([0, 0, 0, 0, 0])
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        root = self._stack.pop()
        self.wall_ns = t1 - self._t0
        self.self_ns[0] += self.wall_ns - root[_CHILD]
        self.calls[0] += 1
        self.begin_trial(None)
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        return False

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, kind):
        stack = self._stack
        calls, self_ns, spans = self.calls, self.self_ns, self.spans
        clock = time.perf_counter_ns
        slot = _KIND_SLOT[kind]
        check = _CHECKS.get(name)
        keep = name not in LEAF_SPANS
        if name == "setfn.evaluate_mask":
            by_class = {}
            for cls_name, short in FAMILIES:
                by_class[cls_name] = self.index[f"{name}.{short}"]
            idx_of = lambda args: by_class[type(args[0]).__name__]
        else:
            fixed = self.index[name]
            idx_of = lambda args: fixed
        distinct = self.distinct if name == "noise.value_mask" else None
        starts_trial = name == "harness.run_trial"
        tracer = self

        def wrapper(*args, **kwargs):
            if starts_trial:
                tracer.begin_trial(f"{args[0].master_seed}:{args[1]}")
            span_id = 0
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0, 0, 0, 0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent = stack[-1]
                dur = t1 - t0
                parent[_CHILD] += dur
                if slot is not None:
                    parent[slot] += 1
                idx = idx_of(args)
                calls[idx] += 1
                self_ns[idx] += dur - frame[_CHILD]
                if keep:
                    spans.append((span_id, parent[_ID], idx, t0, t1, tracer.trial))
            if distinct is not None:
                distinct.add((args[0].master_seed, args[1]))
            if check is not None:
                problem = check(args, kwargs, frame, result)
                if problem:
                    tracer.violations[f"{name}: {problem}"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def layer_self_ms(self) -> dict[str, float]:
        return {name: ns / 1e6 for name, ns in zip(self.names, self.self_ns)}

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines (times in ns from the start
        of the traced phase)."""
        with open(path, "w") as out:
            for span_id, parent, idx, t0, t1, trial in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": self.names[idx],
                    "start_ns": t0 - self._t0, "end_ns": t1 - self._t0,
                    "trial": trial}) + "\n")


def _check_double_greedy(args, kwargs, frame, result):
    ground = args[1] if len(args) > 1 else kwargs["ground"]
    universe = kwargs.get("universe", args[3] if len(args) > 3 else None)
    matroid = kwargs.get("matroid", args[4] if len(args) > 4 else None)
    k = len(universe) if universe is not None else ground.n
    q = frame[_QUERY]
    if matroid is None:
        return None if q == 2 + 2 * k else f"{q} queries over k={k}, expected {2 + 2 * k}"
    return None if 2 + k <= q <= 2 + 2 * k else f"{q} queries over k={k} outside [2+k, 2+2k]"


def _check_surrogate_value(args, kwargs, frame, result):
    m = args[0].cfg.m
    q = frame[_QUERY]
    return None if q == m else f"{q} inner queries, expected m={m}"


def _check_noisy_query(args, kwargs, frame, result):
    if frame[_EVAL] == 1 and frame[_MULT] == 1:
        return None
    return f"{frame[_EVAL]} evaluations and {frame[_MULT]} multipliers per query, expected 1 and 1"


def _check_exact_query(args, kwargs, frame, result):
    return None if frame[_EVAL] == 1 else f"{frame[_EVAL]} evaluations per query, expected 1"


def _independent(matroid, s) -> str | None:
    from noisysubmax.matroids import is_independent
    return None if is_independent(matroid, s) else "returned a dependent set"


_CHECKS = {
    "solvers.double_greedy": _check_double_greedy,
    "surrogate.SampledSurrogateOracle.value_mask": _check_surrogate_value,
    "noise.value_mask": _check_noisy_query,
    "oracles.ExactOracle.value_mask": _check_exact_query,
    "meta.meta_solve": lambda a, k, f, r: _independent(a[1].matroid, r),
    "solvers.run_solver": lambda a, k, f, r: _independent(a[2], r),
    "solvers.pipage_round": lambda a, k, f, r: _independent(a[0], r),
}
