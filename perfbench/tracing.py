"""Span tracer that times edsim's layers from outside the package.

`Tracer.install` replaces the public functions of each layer module with
timing wrappers, in every edsim module that bound them: `interferometry`,
`cli` and the package itself import names such as `evolve_analytic` at
import time, so patching only their home module would miss those calls.
Spans live in memory with a link to their parent span; a span's self time
is its duration minus the durations of its children (one thread, so
children never overlap). `per_layer` aggregates them into the metrics
named in PER_LAYER.

In `cli` only `main` is wrapped: it is the layer's entry, and its self time
is then all of the CLI's own work (parsing, serialization, file writes).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter

LAYERS = ("cli", "interferometry", "engine", "core", "sensitivity")
BOUND_FUNCTIONS = ("single_atom_reach", "matterwave_bound", "distance_reach", "cosmic_bound")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rk4_steps(args, kwargs) -> int:
    # the integrator's own step count: n = ceil(duration/step) for a
    # non-empty segment (evolve_stepped rounds with the same guard)
    spec = _arg(args, kwargs, 1, "spec")
    if spec.duration <= 0.0 or not spec.step:
        return 0
    return max(1, math.ceil(spec.duration / spec.step - 1e-9))


def _dim(args, kwargs) -> int:
    # Hilbert-space dimension of the state the engine propagates
    return _arg(args, kwargs, 0, "rho0").entries.shape[0]


# spans that record the dimension of the state they propagate
DIM_SPANS = ("engine.evolve_analytic", "engine.evolve_stepped")

# per-call sizes recorded next to the span, by span name
SIZES = {
    "engine.evolve_stepped": _rk4_steps,
    "interferometry.run_ramsey_quantized": lambda a, k: len(_arg(a, k, 0, "cfg").phases),
    "interferometry.run_ramsey_semiclassical": lambda a, k: len(_arg(a, k, 0, "cfg").phases),
    "sensitivity.ghz_design_grid": (
        lambda a, k: len(_arg(a, k, 1, "n_grid")) * len(_arg(a, k, 2, "v_grid"))
    ),
}

# (metric, unit) reported by a traced run, in BENCHMARK.json's order
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("interferometry.run_michelson.calls", "count"),
    ("interferometry.run_michelson.time_s", "s"),
    ("interferometry.run_michelson.self_s", "s"),
    ("interferometry.run_ramsey_quantized.calls", "count"),
    ("interferometry.run_ramsey_quantized.time_s", "s"),
    ("interferometry.run_ramsey_quantized.self_s", "s"),
    ("interferometry.run_ramsey_semiclassical.calls", "count"),
    ("interferometry.run_ramsey_semiclassical.time_s", "s"),
    ("interferometry.run_ramsey_semiclassical.self_s", "s"),
    ("interferometry.phase_points", "count"),
    ("engine.evolve_analytic.calls", "count"),
    ("engine.evolve_analytic.time_s", "s"),
    ("engine.evolve_analytic.dim_max", "dim"),
    ("engine.evolve_stepped.calls", "count"),
    ("engine.evolve_stepped.time_s", "s"),
    ("engine.rk4_steps", "count"),
    ("engine.generator.calls", "count"),
    ("engine.generator.time_s", "s"),
    ("core.validate_density.calls", "count"),
    ("core.validate_density.time_s", "s"),
    ("core.beamsplitter_5050.calls", "count"),
    ("core.beamsplitter_5050.time_s", "s"),
    ("core.embed.calls", "count"),
    ("core.embed.time_s", "s"),
    ("core.coherent_state.calls", "count"),
    ("core.coherent_state.time_s", "s"),
    ("sensitivity.ghz_design_grid.calls", "count"),
    ("sensitivity.ghz_design_grid.time_s", "s"),
    ("sensitivity.grid_points", "count"),
    ("sensitivity.ghz_design.time_s", "s"),
    ("sensitivity.bounds.time_s", "s"),
    ("layer.interferometry.self_s", "s"),
    ("layer.engine.self_s", "s"),
    ("layer.core.self_s", "s"),
    ("layer.sensitivity.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, parent index or -1, start, end, size, dim]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, size = self.spans, self._stack, SIZES.get(name)
        dim = _dim if name in DIM_SPANS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    size(args, kwargs) if size else 0, dim(args, kwargs) if dim else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "edsim" or key.startswith("edsim.")]
        for layer in LAYERS:
            home = sys.modules[f"edsim.{layer}"]
            names = ("main",) if layer == "cli" else home.__all__
            for attr in names:
                fn = getattr(home, attr)
                if not inspect.isfunction(fn):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapped)
                            self._undo.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._undo):
            setattr(module, key, fn)
        self._undo.clear()

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, time_s, self_s, size_sum and dim_max for every span name."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, _, start, end, size, dim) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0,
                                      "size_sum": 0, "dim_max": 0})
            s["calls"] += 1
            s["time_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["size_sum"] += size
            s["dim_max"] = max(s["dim_max"], dim)
        return out

    def top_level_dims(self) -> list[int]:
        """For each top-level span in call order, the largest state dimension
        an engine call under it propagated (0 if none did)."""
        root: list[int] = []     # per span, its top-level ancestor's place in dims
        dims: list[int] = []
        for _, parent, *_, dim in self.spans:
            if parent < 0:
                root.append(len(dims))
                dims.append(dim)
            else:
                root.append(root[parent])
                dims[root[-1]] = max(dims[root[-1]], dim)
        return dims

    def per_layer(self, passes: int) -> dict[str, float]:
        """The PER_LAYER metrics the spans give, per pass of the workload
        (dim_max is a maximum). cli.bytes_out and the trace.*_s figures
        come from the runner."""
        by_name = self.per_name()
        zero = {"calls": 0, "time_s": 0.0, "self_s": 0.0, "size_sum": 0, "dim_max": 0}

        def stat(name: str, field: str) -> float:
            return by_name.get(name, zero)[field]

        out = {
            "engine.rk4_steps": stat("engine.evolve_stepped", "size_sum"),
            "interferometry.phase_points": (stat("interferometry.run_ramsey_quantized", "size_sum")
                                            + stat("interferometry.run_ramsey_semiclassical", "size_sum")),
            "sensitivity.grid_points": stat("sensitivity.ghz_design_grid", "size_sum"),
            "sensitivity.bounds.time_s": sum(stat(f"sensitivity.{fn}", "time_s") for fn in BOUND_FUNCTIONS),
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS[1:]:  # the cli layer's self time is cli.main.self_s
            out[f"layer.{layer}.self_s"] = sum(
                s["self_s"] for name, s in by_name.items() if name.startswith(layer + ".")
            )
        for metric, _ in PER_LAYER:
            name, _, field = metric.rpartition(".")
            if metric not in out and field in ("calls", "time_s", "self_s"):
                out[metric] = stat(name, field)
        out = {metric: value / passes for metric, value in out.items()}
        out["engine.evolve_analytic.dim_max"] = stat("engine.evolve_analytic", "dim_max")
        return out
