"""Span tracing of koopmetrics' public functions, installed from outside.

The package has no instrumentation of its own, so the tracer replaces each
traced function with a timing wrapper at every place the function is bound:
the defining module, every ``from ... import`` binding in another
koopmetrics module (``conjugacy`` binds ``svd``/``pinv``; ``koopman``,
``benchmark`` bind ``eig``; ``cli`` binds the ``koopman`` entry points) and
the package namespace. Calls made through a module global, such as
``linalg.pinv`` reaching ``svd``, then go through the wrapper as well.
Methods are patched on their class.

Spans stay in memory as ``[name, parent_index, start, end]`` rows, in CPU
seconds of the process (like every benchmark timing), and are
summarised (inclusive time, self time, call count) or written out at the end.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# module -> traced public functions (``Class.method`` for methods).
TARGETS: dict[str, tuple[str, ...]] = {
    "linalg": ("eig", "svd", "pinv", "unitarity_defect"),
    "koopman": (
        "build_observables",
        "identify_operator",
        "decompose",
        "eigenfunction_trajectories",
        "reconstruct_observables",
    ),
    "conjugacy": (
        "compare",
        "solve_c_r1",
        "solve_c_r2",
        "solve_permutation",
        "solve_gamma",
        "residual_r1",
        "residual_r2",
        "lsq_transform",
        "recover_t",
        "pareto_deviations",
    ),
    "io": (
        "read_trajectory_csv",
        "save_model",
        "load_model",
        "ModelRecord.implied_trajectory",
        "file_sha256",
        "save_report",
    ),
    "hopper": ("simulate_hopping", "morphological_computation"),
    "benchmark": ("benchmark_system", "compare_pair"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class Tracer:
    """Records nested spans around every function in TARGETS while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.paused = False

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, parent, time.process_time(), 0.0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.process_time()
                self._stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"koopmetrics.{m}") for m in TARGETS}
        namespaces = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "koopmetrics" or key.startswith("koopmetrics.")
        ]
        for mod_name, qualnames in TARGETS.items():
            for qualname in qualnames:
                *path, attr = qualname.split(".")
                owner = modules[mod_name]
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{mod_name}.{qualname}", original)
                if path:
                    self._patch(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def pause(self):
        """Run output checks without recording their calls."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def top_level_seconds(self, names) -> float:
        """Summed duration of the outermost spans of the given functions."""
        return sum(
            end - start
            for name, parent, start, end in self.spans
            if parent < 0 and name in names
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: inclusive seconds, self seconds and call count."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        for (name, _, start, end), covered in zip(self.spans, child):
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            entry["calls"] += 1
        return out
