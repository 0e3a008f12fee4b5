"""Span recorder for the traced benchmark run.

Tracing happens from outside the program: while a ``Tracer`` is active,
each traced public function of ``jetsolve`` is replaced, under every name a
``jetsolve`` module binds it to, by a wrapper that records a span.  For
example ``fd_values`` is bound in ``grid``, ``picard``, ``holder`` and
``potential``; all four names are wrapped, so every call is seen whichever
module makes it.  Leaving the ``with`` block restores the original objects.

A span is (id, call, name, start, end, parent).  Spans stay in memory and
are written out once, at the end of the run.  A layer's self time is its
span's duration minus the durations of its direct children; one thread
runs everything, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

# (module, function) pairs timed as spans.  Each one is a per-layer metric
# "<module>.<function>.s" (self time); the ones in COUNTED also get
# "<module>.<function>.calls".
TIMED = (
    ("grid", "build_grid"),
    ("grid", "build_pair_set"),
    ("grid", "fd_values"),
    ("holder", "weighted_norm_values"),
    ("holder", "taylor_remainder_ratio"),
    ("potential", "potential_hessian"),
    ("reduce", "check_ellipticity"),
    ("picard", "make_state"),
    ("picard", "source_term"),
    ("picard", "picard_map"),
    ("picard", "solver_norm"),
    ("picard", "choose_norm_radius"),
    ("picard", "coefficient_deviation_sup"),
    ("picard", "residual_check"),
    ("verify", "run_lemma_suite"),
)
COUNTED = ("grid.fd_values", "grid.build_grid", "picard.source_term",
           "holder.weighted_norm_values", "potential.potential_hessian")

# System builders whose returned a/phi oracles are wrapped to count calls.
ORACLE_BUILDERS = (("systems", "harmonic_map_system"),
                   ("systems", "minimal_surface_system"))


@dataclass
class Span:
    id: int
    call: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans and counters for the calls made while it is active."""

    ROOT = "call"

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._call = -1
        self.counts: dict[str, float] = {}
        self.grids: list = []
        self.reports: list = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "jetsolve" or name.startswith("jetsolve.")]
        hooks = {"holder.weighted_norm_values": self._count_pairs,
                 "grid.build_grid": self._keep_grid,
                 "grid.build_pair_set": self._note_pair_set}
        for mod_name, fn_name in TIMED:
            name = f"{mod_name}.{fn_name}"
            fn = getattr(sys.modules[f"jetsolve.{mod_name}"], fn_name)
            self._rebind(modules, fn, self._timed(name, fn, hooks.get(name)))
        for mod_name, fn_name in ORACLE_BUILDERS:
            fn = getattr(sys.modules[f"jetsolve.{mod_name}"], fn_name)
            self._rebind(modules, fn, self._counting_builder(fn))
        solve = sys.modules["jetsolve.picard"].picard_solve
        self._rebind(modules, solve, self._capturing_solve(solve))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _rebind(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self._call, name, time.perf_counter(),
                    float("nan"), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _timed(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def run_call(self, thunk):
        """Run one top-level call under a root span; returns its result."""
        self._call += 1
        span = self._open(self.ROOT)
        try:
            return thunk()
        finally:
            self._close(span)

    # -- counters ---------------------------------------------------------

    def _add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count_pairs(self, args, kwargs, result) -> None:
        values = args[0] if args else kwargs["values"]
        pairs = args[2] if len(args) > 2 else kwargs["pairs"]
        fields = values.size // values.shape[0] if values.ndim > 1 else 1
        self._add("holder.pairs_scanned", int(pairs.size) * fields)

    def _keep_grid(self, args, kwargs, grid) -> None:
        self.grids.append(grid)

    def _note_pair_set(self, args, kwargs, pairs) -> None:
        self._add("grid.pair_sets")
        self._add("grid.pair_sets_complete", int(bool(pairs.complete)))

    def _counted(self, fn):
        def oracle(*args, **kwargs):
            self._add("reduce.oracle_calls")
            return fn(*args, **kwargs)
        return oracle

    def _counting_builder(self, build):
        def wrapper(*args, **kwargs):
            system = build(*args, **kwargs)
            system.a = self._counted(system.a)
            system.phi = self._counted(system.phi)
            return system
        wrapper.__wrapped__ = build
        return wrapper

    def _capturing_solve(self, solve):
        failure = sys.modules["jetsolve.picard"].SolveFailure

        def wrapper(*args, **kwargs):
            try:
                report = solve(*args, **kwargs)
            except failure as exc:
                self.reports.append(exc.report)
                raise
            except Exception:
                self.reports.append(None)
                raise
            self.reports.append(report)
            return report
        wrapper.__wrapped__ = solve
        return wrapper

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, over every recorded call."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.end - span.start - child[span.id]
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "call": s.call, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")


def wrapper_costs() -> tuple[float, float]:
    """Seconds that one span wrapper and one oracle counter add to a call.

    A no-op is timed bare and through each wrapper, on a scratch tracer.
    Each figure is the best of five rounds of 10,000 calls, since noise on
    a shared machine only ever adds time.
    """
    calls, rounds = 10000, 5

    def noop():
        return None

    scratch = Tracer()
    spanned = scratch._timed("noop", noop, None)
    counted = scratch._counted(noop)

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(rounds):
            scratch.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best / calls

    bare = per_call(noop)
    return per_call(spanned) - bare, per_call(counted) - bare
