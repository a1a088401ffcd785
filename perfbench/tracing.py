"""Per-layer tracing of malctrl, installed from outside the package.

Each traced function is replaced, for the duration of one traced run, by a
wrapper that records its calls and its self time (its own duration minus the
time covered by traced calls it makes).  The package binds names at import
(``sweep`` holds its own ``integrate_forward``, ``malctrl.objective`` is the
function that shadows the submodule), so a wrapper is installed in every
``malctrl`` namespace that holds the original function, and the original is
put back afterwards.

A few counts are taken at the same boundaries.  ``sweep.iterations`` and
``serialize.bytes_written`` are measured.  ``dynamics.rhs_evals`` and
``dynamics.matvec_bytes`` are computed from call counts and array sizes:
they say how much work the RK4 loops ask for, not what the memory system did.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# malctrl submodule -> public functions whose calls and self time are reported
TRACED = {
    "dynamics": ("integrate_forward", "ctmc_simulate"),
    "adjoint": ("integrate_backward", "adjoint_rhs"),
    "sweep": ("fbsm_solve", "control_update"),
    "objective": ("objective",),
    "rgcs": ("rgcs_generate",),
    "experiments": ("run_experiment",),
    "serialize": ("totals_csv", "sampled_nodes_csv", "write_summary"),
    "graphs": ("generate_smart_home",),
}

# the benchmark's own span around one workload body; its self time is the
# part of the body spent outside every traced function
ROOT_SPAN = "bench.body"

COUNT_UNITS = {
    "sweep.iterations": "count",
    "serialize.bytes_written": "B",
    "dynamics.rhs_evals": "count-computed",
    "dynamics.matvec_bytes": "B-computed",
}

# matrix-vector products with the adjacency per call
_MATVECS_PER_FORWARD_RHS = 2
_MATVECS_PER_ADJOINT_RHS = 4
_RK4_STAGES = 4


def stored_bytes(matrix) -> int:
    """Bytes the adjacency occupies, dense or in a scipy.sparse compressed format."""
    if hasattr(matrix, "indptr"):
        return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return matrix.nbytes


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sweep(counts, args, kwargs, result):
    counts["sweep.iterations"] += result[3].iterations_used


def _count_text(counts, args, kwargs, result):
    counts["serialize.bytes_written"] += len(result.encode())


def _count_summary_file(counts, args, kwargs, result):
    counts["serialize.bytes_written"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _count_forward(counts, args, kwargs, result):
    evals = _RK4_STAGES * (len(result.time_grid) - 1)
    adjacency = _arg(args, kwargs, 0, "instance").graph.adjacency
    counts["dynamics.rhs_evals"] += evals
    counts["dynamics.matvec_bytes"] += evals * _MATVECS_PER_FORWARD_RHS * stored_bytes(adjacency)


def _count_adjoint_rhs(counts, args, kwargs, result):
    adjacency = _arg(args, kwargs, 4, "graph").adjacency
    counts["dynamics.matvec_bytes"] += _MATVECS_PER_ADJOINT_RHS * stored_bytes(adjacency)


_COUNT_HOOKS = {
    "sweep.fbsm_solve": _count_sweep,
    "serialize.totals_csv": _count_text,
    "serialize.sampled_nodes_csv": _count_text,
    "serialize.write_summary": _count_summary_file,
    "dynamics.integrate_forward": _count_forward,
    "adjoint.adjoint_rhs": _count_adjoint_rhs,
}


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[f"{ROOT_SPAN}.self_s"] = "s"
    units.update(COUNT_UNITS)
    return units


def _malctrl_namespaces() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "malctrl" or name.startswith("malctrl."))]


class Tracer:
    """Calls, self time and counts of the traced functions, over one or more bodies."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._child_time: list[float] = []   # one entry per open span

    def _wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed - self._child_time.pop()
                self.calls[name] += 1
                if self._child_time:
                    self._child_time[-1] += elapsed
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def _installed(self):
        patches = []
        try:
            for module_name, fn_names in TRACED.items():
                module = importlib.import_module(f"malctrl.{module_name}")
                for fn_name in fn_names:
                    name = f"{module_name}.{fn_name}"
                    original = getattr(module, fn_name)
                    wrapper = self._wrap(name, original, _COUNT_HOOKS.get(name))
                    for namespace in _malctrl_namespaces():
                        for attr, value in list(vars(namespace).items()):
                            if value is original:
                                setattr(namespace, attr, wrapper)
                                patches.append((namespace, attr, original))
            yield
        finally:
            for namespace, attr, original in reversed(patches):
                setattr(namespace, attr, original)

    def run(self, body, *args):
        """Call body(*args) with every wrapper installed; return (result, wall seconds)."""
        root = self._wrap(ROOT_SPAN, body)
        with self._installed():
            start = perf_counter()
            result = root(*args)
            wall = perf_counter() - start
        return result, wall

    def metrics(self) -> dict[str, float]:
        values = {}
        for name in span_names():
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
        values[f"{ROOT_SPAN}.self_s"] = self.self_s[ROOT_SPAN]
        for name in COUNT_UNITS:
            values[name] = self.counts[name]
        return values

    def exact_counts(self) -> dict[str, int]:
        """The counts that must repeat exactly when the same body runs again."""
        counts = {f"{name}.calls": self.calls[name] for name in span_names()}
        counts.update({name: self.counts[name] for name in COUNT_UNITS})
        return counts
