"""Span recorder and the patcher that installs it around consultmarket.

A traced run wraps the public functions and methods listed in ``TARGETS``
with span recorders.  Each span stores its name, start, end, parent span
and operation id in flat arrays; nothing is written until the run ends.

Modules bind names when they import them (``dynamics`` does
``from .equilibrium import price_slope``), so a function target is
replaced in every ``consultmarket`` module that binds it, and every
replaced binding is put back by ``Patches.restore``.  Methods live in one
class ``__dict__`` and are replaced there.  Targets that the program no
longer defines are skipped and listed in ``Patches.missing``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "consultmarket"
MARK = "_perfbench_span"

# (module, attribute path, span name).  A path with a dot is Class.method;
# wrapping ``__init__`` counts builds of that class.
TARGETS = (
    ("consultmarket.model", "min_viable_size", "model.min_viable_size"),
    ("consultmarket.model", "ModelParams.__init__", "model.ModelParams"),
    ("consultmarket.model", "ProviderBounds.__init__", "model.ProviderBounds"),
    ("consultmarket.curves", "DemandSide.at", "curves.DemandSide.at"),
    ("consultmarket.curves", "SupplySide.at", "curves.SupplySide.at"),
    ("consultmarket.curves", "DemandSide.density", "curves.DemandSide.density"),
    ("consultmarket.curves", "SupplySide.density", "curves.SupplySide.density"),
    ("consultmarket.curves", "evolve_density", "curves.evolve_density"),
    ("consultmarket.numerics", "find_root", "numerics.find_root"),
    ("consultmarket.numerics", "integrate_tail", "numerics.integrate_tail"),
    ("consultmarket.numerics", "rk4_step", "numerics.rk4_step"),
    ("consultmarket.numerics", "DensityGrid.__init__", "numerics.DensityGrid"),
    ("consultmarket.equilibrium", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("consultmarket.equilibrium", "price_slope", "equilibrium.price_slope"),
    ("consultmarket.equilibrium", "classify_regime", "equilibrium.classify_regime"),
    ("consultmarket.equilibrium", "entry_rate", "equilibrium.entry_rate"),
    ("consultmarket.equilibrium", "exit_rate", "equilibrium.exit_rate"),
    ("consultmarket.dynamics", "simulate", "dynamics.simulate"),
    ("consultmarket.dynamics", "summarize", "dynamics.summarize"),
    ("consultmarket.dynamics", "sweep", "dynamics.sweep"),
    ("consultmarket.calibration", "load_series", "calibration.load_series"),
    ("consultmarket.calibration", "estimate_rates", "calibration.estimate_rates"),
    ("consultmarket.calibration", "anchored_params", "calibration.anchored_params"),
    ("consultmarket.calibration", "load_size_histogram", "calibration.load_size_histogram"),
    ("consultmarket.calibration", "fit_zipf", "calibration.fit_zipf"),
    ("consultmarket.cli", "load_config", "cli.load_config"),
    ("consultmarket.cli", "run", "cli.run"),
)
# the residual callable handed to find_root is wrapped too: one span per
# solver iteration
RESIDUAL = "numerics.residual"


class Recorder:
    """In-memory span store for one process and one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def begin_op(self, name: str) -> int:
        """Start a new operation; its root span gets ``name``."""
        self._op += 1
        return self.open(self.name_id(name))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap and their summed
    durations are the part of the parent interval they cover.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def aggregate(spans: dict[str, np.ndarray], names) -> dict[str, dict[str, float]]:
    """Per span name: call count, busy seconds and self seconds."""
    name, start, end, parent = spans["name"], spans["start"], spans["end"], spans["parent"]
    own = self_times(start, end, parent)
    size = len(names)
    calls = np.bincount(name, minlength=size)
    busy = np.bincount(name, weights=end - start, minlength=size)
    self_sum = np.bincount(name, weights=own, minlength=size)
    return {
        n: {"calls": int(calls[i]), "busy": float(busy[i]), "self": float(self_sum[i])}
        for i, n in enumerate(names)
    }


def load(path) -> tuple[dict[str, np.ndarray], list[str]]:
    with np.load(path) as data:
        spans = {k: data[k] for k in ("name", "parent", "op", "start", "end")}
        return spans, [str(n) for n in data["names"]]


def merge(parts: list[tuple[dict[str, np.ndarray], list[str]]], total=None) -> dict[str, dict[str, float]]:
    """Aggregate several span stores (one per child process) by span name,
    adding to ``total`` when given."""
    total = {} if total is None else total
    for spans, names in parts:
        for n, agg in aggregate(spans, names).items():
            acc = total.setdefault(n, {"calls": 0, "busy": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += agg[key]
    return total


def calls_in_ops(spans: dict[str, np.ndarray], name_id: int, ops) -> int:
    """Number of spans named ``name_id`` recorded inside the given operations."""
    return int(np.count_nonzero((spans["name"] == name_id) & np.isin(spans["op"], list(ops))))


def save_parts(parts: list[tuple[dict[str, np.ndarray], list[str]]], path) -> None:
    """Write several span stores as one, renumbering names, parents and ops."""
    ids: dict[str, int] = {}
    merged: dict[str, list[np.ndarray]] = {k: [] for k in ("name", "parent", "op", "start", "end")}
    offset = op_offset = 0
    for spans, part_names in parts:
        remap = np.array([ids.setdefault(n, len(ids)) for n in part_names], dtype=np.int32)
        merged["name"].append(remap[spans["name"]])
        merged["parent"].append(np.where(spans["parent"] >= 0, spans["parent"] + offset, -1))
        merged["op"].append(spans["op"] + op_offset)
        merged["start"].append(spans["start"])
        merged["end"].append(spans["end"])
        offset += len(spans["start"])
        op_offset += int(spans["op"].max()) + 1 if len(spans["op"]) else 0
    np.savez(path, names=np.array(list(ids), dtype=str), **{k: np.concatenate(v) for k, v in merged.items()})


def _wrap(recorder: Recorder, name: str, fn, wrap_first_arg: int | None = None):
    nid = recorder.name_id(name)
    rid = recorder.name_id(RESIDUAL) if wrap_first_arg is not None else None

    def counted(residual):
        def residual_span(x):
            i = recorder.open(rid)
            try:
                return residual(x)
            finally:
                recorder.close(i)

        return residual_span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rid is not None and args:
            args = (counted(args[0]),) + args[1:]
        i = recorder.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(i)

    setattr(wrapper, MARK, True)
    return wrapper


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Patches:
    """Installed span wrappers and the original bindings they replaced."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.replaced: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self) -> "Patches":
        modules = _package_modules()
        for module_name, path, span in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = _wrap(self.recorder, span, original, 0 if span == "numerics.find_root" else None)
            if owner_name:
                self._replace(owner, attr, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, bound, wrapper)
        return self

    def _replace(self, holder, attr: str, wrapper) -> None:
        self.replaced.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapper)

    def restore(self) -> None:
        while self.replaced:
            holder, attr, original = self.replaced.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Patches":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def leftover_wrappers() -> list[str]:
    """Names of span wrappers still bound anywhere in the package."""
    found = []
    for mod in _package_modules():
        for bound, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{bound}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [
                    f"{mod.__name__}.{bound}.{a}" for a, v in vars(value).items() if getattr(v, MARK, False)
                ]
    return found
