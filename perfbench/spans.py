"""In-memory spans recorded from the benchmark's side of the API.

The traced run wraps the public functions listed in :data:`PATCHES` for
the duration of one body, so every call into a layer — including the
calls :func:`repro.experiments.figure2.run_figure2` makes internally —
records a span: name, layer, start, end, parent, workload and run id.
Spans stay in memory and are written as JSONL when the run ends.  The
wrappers change no argument and no result (the engine wrapper only
reads the ``stats=`` counters the engine already keeps), so traced and
untraced bodies must return identical results.

Calls made inside spawned pool workers are out of reach: those
processes import :mod:`repro` afresh.  The observer's ``worker`` events
account for them instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: (module, attribute, span name, layer) wrapped during a traced body.
#: A module that imported a name binds its own reference, so a function
#: reached through several modules is listed once per module.
PATCHES = (
    ("repro.pipeline", "build_from_source", "build", "pipeline.build"),
    ("repro.pipeline", "compile_source", "frontend", "pipeline.frontend"),
    ("repro.pipeline", "protect", "protect", "pipeline.protect"),
    ("repro.pipeline", "lower_module", "lower", "pipeline.lower"),
    ("repro.pipeline", "compile_program", "compile_program",
     "pipeline.lower"),
    ("repro.experiments.runner", "profile_module", "profile",
     "planner.profile"),
    ("repro.experiments.runner", "classify_campaign", "rootcause",
     "analysis.rootcause"),
    ("repro.experiments.runner", "run_ir_campaign", "campaign",
     "fi.campaign"),
    ("repro.experiments.runner", "run_asm_campaign", "campaign",
     "fi.campaign"),
    ("repro.fi.campaign", "run_ir_campaign", "campaign", "fi.campaign"),
    ("repro.fi.campaign", "run_asm_campaign", "campaign", "fi.campaign"),
    ("repro.fi.campaign", "run_injection_suite", "inject", "fi.engine"),
    ("repro.fi.prune", "run_injection_suite", "inject", "fi.engine"),
    ("repro.fi.compose", "run_injection_suite", "inject", "fi.engine"),
    ("repro.fi.resilience", "run_injection_suite", "inject", "fi.engine"),
    ("repro.fi.prune", "build_prune_plan", "prune_plan", "fi.prune"),
    ("repro.fi.compose", "cached_site_map", "site_map", "fi.sections"),
    ("repro.fi.resilience", "run_supervised", "supervise",
     "fi.resilience"),
)


class Tracer:
    """Spans of one traced run, plus the engine's step counters."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()
        #: which part of the run spans and counters belong to
        #: (``body``, ``reference`` or ``probes``)
        self.scope = "body"
        #: scope -> engine ``stats=`` totals (golden_steps, ...)
        self.counters: Dict[str, Dict[str, int]] = {}

    @contextmanager
    def span(self, name: str, layer: str, **tags) -> Iterator[dict]:
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "run": self.run_id,
               "scope": self.scope,
               "start": time.perf_counter() - self._t0, "end": None}
        rec.update(tags)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return traced

    def _wrap_engine(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = {}
            before = dict(stats)
            with self.span("inject", "fi.engine"):
                fn(*args, **kwargs)
            totals = self.counters.setdefault(self.scope, {})
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value - before.get(key, 0)
        return traced

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Wrap every :data:`PATCHES` entry; restore them on exit."""
        saved = []
        try:
            for module_name, attr, name, layer in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr,
                        self._wrap_engine(original) if layer == "fi.engine"
                        else self._wrap(original, name, layer))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reading ---------------------------------------------------------

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def total(self, name: Optional[str] = None, layer: Optional[str] = None,
              scope: str = "body", **tags) -> float:
        """Summed duration of the matching spans."""
        return sum(
            (self.duration(s) for s in self.spans
            if s["scope"] == scope
            and (name is None or s["name"] == name)
            and (layer is None or s["layer"] == layer)
            and all(s.get(k) == v for k, v in tags.items())), 0.0)

    def self_times(self, root: dict) -> Dict[str, float]:
        """Layer -> self time over ``root`` and its descendants.

        Self time is a span's duration minus the time its children
        cover.  The process is single-threaded, so children nest inside
        their parent and never overlap one another.
        """
        inside = [s for s in self.spans
                  if s["id"] == root["id"]
                  or (s["id"] > root["id"] and s["start"] < root["end"])]
        covered: Dict[int, float] = {}
        for s in inside:
            if s["parent"] is not None:
                covered[s["parent"]] = (covered.get(s["parent"], 0.0)
                                        + self.duration(s))
        out: Dict[str, float] = {}
        for s in inside:
            own = self.duration(s) - covered.get(s["id"], 0.0)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def write_jsonl(self, path: str, extra: List[dict] = ()) -> None:
        with open(path, "w") as fh:
            for rec in list(self.spans) + list(extra):
                fh.write(json.dumps(rec) + "\n")
