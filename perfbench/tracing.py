"""Outside-in layer tracer for replica-harmony.

The tracer replaces module globals and class methods of the imported
package with timing wrappers, so the program under test is never edited.
Every wrapped call adds one to its layer's call count and its self time
(its duration minus the wrapped calls made inside it on the same thread) to
the layer's total.  A wrapped call is subtracted from its caller from the
moment its wrapper is entered to the moment the wrapper's bookkeeping is
done, so the tracer's own work lands in no layer's self time.

Calls at datum granularity and above also leave a span in memory: the CLI
entry points, the trial fan-out, each trial, scenario generation, cost-model
set-up, and one span per datum that runs from PlacementProblem construction
to the capacity commit or the failure.  Work done while a datum is open is
charged to that datum's span id.  Per-evaluation calls are only counted and
timed, never recorded one by one.  Everything is written out once, by
``dump``, when the job ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time

# Wrapper kinds.
PLAIN = "plain"  # count and self time only
SPAN = "span"  # also record a span
FANOUT = "fanout"  # a span whose trials may run on other threads
OPENS = "opens"  # opens the datum span (PlacementProblem construction)
PHASE = "phase"  # an exception leaving it ends the datum as a failure
CLOSES = "closes"  # ends the datum span (the capacity commit)
EVAL = "eval"  # objective evaluation: also counts distinct vectors per datum

# (module, attribute, layer, kind); the attribute is replaced in every
# package module that holds the same function object.
FUNCTIONS = (
    ("scenario", "generate_topology", "scenario.generate", SPAN),
    ("scenario", "generate_workload", "scenario.generate", SPAN),
    ("seeding", "derive_seed", "seeding.derive_seed", PLAIN),
    ("model", "check_allocation", "model.validate", PLAIN),
    ("model", "commit_placement", "model.commit", CLOSES),
    ("cost", "placement_energy", "cost.metrics", PLAIN),
    ("optimize", "random_allocation", "optimize.sample", PLAIN),
    ("optimize", "combine_harmonies", "optimize.combine", PLAIN),
    ("optimize", "hs_optimize", "optimize.search", PHASE),
    ("optimize", "random_search", "optimize.search", PHASE),
    ("optimize", "ga_optimize", "optimize.search", PHASE),
    ("optimize", "foa_optimize", "optimize.search", PHASE),
    ("optimize", "exhaustive_best", "optimize.search", PHASE),
    ("harness", "run_trial", "harness.trial", SPAN),
    ("harness", "compare_algorithms", "harness.aggregate", FANOUT),
    ("harness", "report_to_csv", "harness.serialize", PLAIN),
    ("harness", "totals_to_dict", "harness.serialize", PLAIN),
    ("cli", "_plot_csv", "harness.serialize", PLAIN),
    ("cli", "_run_many", "harness.aggregate", FANOUT),
    ("cli", "main", "cli", SPAN),
    ("cli", "cmd_run", "cli", SPAN),
    ("cli", "cmd_compare", "cli", SPAN),
)

# (module, class, method, layer, kind)
METHODS = (
    ("cost", "CostModel", "__init__", "cost.setup", SPAN),
    ("cost", "CostModel", "total", "cost.eval", EVAL),
    ("cost", "CostModel", "access_delay", "cost.metrics", PLAIN),
    ("model", "AllocationVector", "__post_init__", "model.alloc", PLAIN),
    ("optimize", "PlacementProblem", "__init__", "optimize.problem", OPENS),
)

MODULES = ("scenario", "seeding", "model", "cost", "optimize", "harness", "cli")


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[list[float]] = []  # one child-time cell per open call
        self.spans: list[int] = []  # ids of the open spans, innermost last
        self.layers: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.datum: dict | None = None
        self.seen: set = set()  # distinct sorted vectors of the open datum


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._fanout: int | None = None
        self.spans: list[dict] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
            return state

    # --- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer entry points of an imported replica_harmony package."""
        modules = [getattr(package, name) for name in MODULES]
        for module_name, attr, layer, kind in FUNCTIONS:
            original = getattr(getattr(package, module_name), attr)
            wrapper = self._wrap(original, layer, kind)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
        for module_name, cls_name, method, layer, kind in METHODS:
            cls = getattr(getattr(package, module_name), cls_name)
            setattr(cls, method, self._wrap(getattr(cls, method), layer, kind))

    def _wrap(self, fn, layer: str, kind: str):
        tracer = self
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            th = state()
            span = None
            if kind in (SPAN, FANOUT):
                span = tracer._open_span(th, layer, fn.__qualname__, args)
            elif kind == OPENS:
                tracer._open_datum(th, args[2] if len(args) > 2 else kwargs["datum"])
            cell = [0.0]
            th.stack.append(cell)
            outcome = "placed"
            saved_fanout = tracer._fanout
            if kind == FANOUT:
                tracer._fanout = span["id"]
            start = clock()
            cpu_start = time.thread_time() if span is not None else 0.0
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                outcome = type(exc).__name__
                if kind in (OPENS, PHASE) and th.datum is not None:
                    tracer._close_datum(th, clock(), outcome)
                raise
            finally:
                end = clock()
                elapsed = end - start
                th.stack.pop()
                acc = th.layers.get(layer)
                if acc is None:
                    acc = th.layers[layer] = [0, 0.0]
                acc[0] += 1
                acc[1] += elapsed - cell[0]
                if kind == EVAL and th.datum is not None:
                    th.datum["evals"] += 1
                    th.seen.add(tuple(sorted(args[2].clouds)))
                elif kind == CLOSES and th.datum is not None:
                    tracer._close_datum(th, end, outcome)
                if span is not None:
                    span.update(start=start, end=end, cpu=time.thread_time() - cpu_start)
                    th.spans.pop()
                if kind == FANOUT:
                    tracer._fanout = saved_fanout
                # The caller is charged the whole call, this bookkeeping
                # included, so the tracer's own cost is nobody's self time.
                if th.stack:
                    th.stack[-1][0] += clock() - entered

        return wrapper

    # --- spans ----------------------------------------------------------------

    def _open_span(self, th: _ThreadState, layer: str, name: str, args) -> dict:
        span = {
            "id": next(self._ids),
            # a trial run on a pool thread is caused by the open fan-out
            "parent": th.spans[-1] if th.spans else self._fanout,
            "layer": layer,
            "name": name,
            "thread": th.index,
        }
        if layer == "harness.trial":
            span.update(scenario=args[0].name, algorithm=args[1], seed=args[2])
        self.spans.append(span)
        th.spans.append(span["id"])
        return span

    def _open_datum(self, th: _ThreadState, datum) -> None:
        th.datum = {
            "id": next(self._ids),
            "parent": th.spans[-1] if th.spans else None,
            "layer": "harness.place",
            "name": "datum",
            "thread": th.index,
            "datum": datum.id,
            "start": time.perf_counter(),
            "evals": 0,
        }

    def _close_datum(self, th: _ThreadState, end: float, outcome: str) -> None:
        record = th.datum
        record.update(end=end, outcome=outcome, distinct=len(th.seen))
        self.spans.append(record)
        th.datum = None
        th.seen = set()

    # --- output ---------------------------------------------------------------

    def dump(self, path, meta: dict) -> None:
        layers: dict[str, list] = {}
        for th in self._threads:
            for layer, (calls, self_s) in th.layers.items():
                acc = layers.setdefault(layer, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
        doc = {
            "meta": meta,
            "layers": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(layers.items())},
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job (see BENCHMARK.json per_layer)."""
    layers = trace["layers"]

    def self_s(*names):
        return sum((layers[n]["self_s"] for n in names if n in layers), 0.0)

    def calls(name):
        return layers[name]["calls"] if name in layers else 0

    data = [s for s in trace["spans"] if s["layer"] == "harness.place"]
    place_us = [(s["end"] - s["start"]) * 1e6 for s in data]
    evals = calls("cost.eval")
    return {
        "scenario.generate_s": self_s("scenario.generate"),
        "cost.setup_s": self_s("cost.setup"),
        "seeding.derive_seed_s": self_s("seeding.derive_seed"),
        "seeding.derive_seed_calls": calls("seeding.derive_seed"),
        "cost.evals": evals,
        "cost.eval_s": self_s("cost.eval"),
        "cost.distinct_eval_ratio": sum(s["distinct"] for s in data) / evals if evals else 1.0,
        "cost.metrics_s": self_s("cost.metrics"),
        "optimize.search_s": self_s("optimize.search"),
        "optimize.sample_s": self_s("optimize.sample"),
        "optimize.combine_s": self_s("optimize.combine"),
        "optimize.problem_s": self_s("optimize.problem"),
        "optimize.infeasible": sum(1 for s in data if s["outcome"] == "Infeasible"),
        "model.alloc_vectors": calls("model.alloc"),
        "model.validate_s": self_s("model.alloc", "model.validate"),
        "model.commit_calls": calls("model.commit"),
        "model.commit_s": self_s("model.commit"),
        "harness.loop_s": self_s("harness.trial"),
        "harness.place_us_p50": statistics.median(place_us),
        "harness.place_us_p99": statistics.quantiles(place_us, n=100)[98],
        "harness.place_samples": len(place_us),
        "harness.aggregate_s": self_s("harness.aggregate"),
        "harness.serialize_s": self_s("harness.serialize"),
        "cli.self_s": self_s("cli"),
    }


def fanout_utilization(trace: dict, workers: int) -> float:
    """Summed trial CPU time over (fan-out wall time x workers).

    The fan-out wall time of one trial fan-out runs from the start of its
    first trial to the end of its last.  Trial time is the CPU time of the
    thread that ran it: a trial that waits for the interpreter lock is not
    busy, so two CPU-bound threads under the lock come out near 0.5.
    """
    groups: dict = {}
    for s in trace["spans"]:
        if s["layer"] == "harness.trial":
            groups.setdefault(s["parent"], []).append(s)
    busy = sum(s["cpu"] for g in groups.values() for s in g)
    wall = sum(max(s["end"] for s in g) - min(s["start"] for s in g) for g in groups.values())
    return busy / (wall * workers)


def main_seconds(trace: dict) -> float:
    """Wall time of the traced cli.main call."""
    (span,) = [s for s in trace["spans"] if s["name"] == "main"]
    return span["end"] - span["start"]
