"""Spans around the program's public functions, installed from outside.

Each wrapped function is rebound in every projmonad module namespace that
holds it, since modules keep their own references to imported names (a
wrapper bound only on `linalg.rank` never sees the calls that `monad`
makes).  Spans live in memory and are aggregated when the run ends.

The layers are the program's modules.  `scalar` gets no span: wrapping
every field operation would distort the timing, so its cost shows in the
self time of its callers.
"""

from __future__ import annotations

import csv
import functools
import gc
import sys
import time

from projmonad.scalar import PrimeField

LAYERS = ("linalg", "polymat", "monad", "hilbert", "complexes", "autgroup", "modp3", "cli")

# module -> public functions that get a span
WRAPPED = {
    "linalg": ("rank", "rref", "kernel_basis", "inverse"),
    "polymat": ("sections_matrix", "compose", "dual_hom", "parse_poly"),
    "monad": ("parse_monad", "format_monad", "dualize", "validate",
              "hilbert_poly_of_cohomology", "cohomology_hilbert_function",
              "sheaf_cohomology"),
    "hilbert": ("interpolate", "bott_h", "euler_poly"),
    "complexes": ("omega_resolution",),
    "autgroup": ("act", "graded_inverse", "induced_dual_element", "random_element",
                 "parse_group_element", "format_group_element"),
    "modp3": ("sample_wss_stats", "wss_membership"),
    "cli": ("run",),
}


class BindingError(RuntimeError):
    """A wrapped function is still reachable unwrapped from the program."""


class Tracer:
    """Collects spans and counters for one traced run.

    A span is [name, start, end, parent, op, excluded]: `excluded` is the
    tracer's own bookkeeping time inside the span (the rank table needs a
    nonzero count of every matrix), which durations leave out.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self.bookkeeping = 0.0
        self.window_twists = 0
        self.draws = 0
        self.rank_rows: list[dict] = []
        self.originals: dict[str, object] = {}

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, self.bookkeeping])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = self.bookkeeping - span[5]
        self.stack.pop()

    def duration(self, span) -> float:
        return span[2] - span[1] - span[5]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, module: str, name: str, fn):
        label = f"{module}.{name}"
        after = getattr(self, f"_after_{module}_{name}", None)
        before = getattr(self, f"_before_{module}_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            idx = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result, self.duration(self.spans[idx]))
            return result

        return wrapper

    def _before_monad_cohomology_hilbert_function(self, args):
        m, position, t_range = args
        if not hasattr(t_range, "__len__"):
            t_range = list(t_range)
        self.window_twists += len(t_range)
        return (m, position, t_range)

    def _after_modp3_sample_wss_stats(self, args, result, seconds):
        self.draws += result[1]

    def _after_linalg_rank(self, args, result, seconds):
        t0 = time.perf_counter()
        m = args[0]
        self.rank_rows.append({
            "field": "fp" if isinstance(m.field, PrimeField) else "q",
            "rows": m.rows, "cols": m.cols,
            "nnz": sum(1 for fe in m.data if fe.value),
            "rank": result, "seconds": seconds,
        })
        self.bookkeeping += time.perf_counter() - t0

    def install(self):
        """Rebind a wrapper for every function in WRAPPED, everywhere it is held."""
        modules = _program_modules()
        replace = {}
        for module, names in WRAPPED.items():
            for name in names:
                fn = getattr(modules[f"projmonad.{module}"], name)
                self.originals[f"{module}.{name}"] = fn
                replace[id(fn)] = self._wrap(module, name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        self.check_bindings()

    def check_bindings(self):
        """Fail when any projmonad namespace or class still holds an original."""
        namespaces = {id(vars(m)): name for name, m in _program_modules().items()}
        for label, fn in self.originals.items():
            for ref in gc.get_referrers(fn):
                if not isinstance(ref, dict):
                    continue
                owner = namespaces.get(id(ref))
                if owner is None and str(ref.get("__module__", "")).startswith("projmonad"):
                    owner = f"class in {ref['__module__']}"
                if owner is not None:
                    raise BindingError(f"{label} is not wrapped in {owner}")

    # -- aggregation ---------------------------------------------------------

    def summary(self, ops: int) -> dict:
        """Per-function calls and inclusive seconds, per-module self seconds."""
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        child = [0.0] * len(self.spans)
        op_total = 0.0
        for span in self.spans:
            d = self.duration(span)
            if span[3] >= 0:
                child[span[3]] += d
        windows = 0  # Hilbert-function windows sampled by hilbert_poly_of_cohomology
        for i, span in enumerate(self.spans):
            name, d = span[0], self.duration(span)
            module = name.split(".", 1)[0]
            if module == "bench":
                op_total += d
                continue
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + d
            self_s[module] += d - child[i]
            if (name == "monad.cohomology_hilbert_function" and span[3] >= 0
                    and self.spans[span[3]][0] == "monad.hilbert_poly_of_cohomology"):
                windows += 1
        return {"ops": ops, "op_seconds": op_total, "calls": calls, "seconds": seconds,
                "self_seconds": self_s, "windows": windows,
                "window_twists": self.window_twists, "draws": self.draws,
                "rank_rows": self.rank_rows}


    def write_spans(self, path):
        """One CSV row per span; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "op", "parent", "start_s", "end_s", "excluded_s"])
            for i, (name, start, end, parent, op, excluded) in enumerate(self.spans):
                out.writerow([i, name, op, parent, f"{start - t0:.9f}", f"{end - t0:.9f}",
                              f"{excluded:.9f}"])


def _program_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "projmonad" or name.startswith("projmonad.")}
