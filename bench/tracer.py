"""Per-layer spans recorded from outside the program.

The tracer wraps the program's public entry points in place, in every
``altermatic`` module namespace that holds them, so calls made through a
``from .x import f`` binding are seen too.  Each timed wrapper records a
span; a span's self time is its duration minus the durations of the
spans it directly contains.  ``core.vertex_cap`` is only counted: it runs
hundreds of thousands of times per pass and timing it would swamp the
rest.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from workloads import WORKLOADS

ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class EntryPoint:
    module: str
    qualname: str
    # Workloads on which the entry point must record calls; zero calls there
    # means it was renamed or bypassed.
    expected: tuple[str, ...]
    timed: bool = True
    # Name of a ratio metric: share of calls whose result passes ``yes``.
    yes_metric: str | None = None
    yes: Callable[[object], bool] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


ENTRY_POINTS = (
    EntryPoint("cli", "main", ALL),
    EntryPoint("files", "parse_hypergraph", ALL),
    EntryPoint("files", "parse_coloring", ("audit",)),
    EntryPoint("bounds", "verify_theorem", ("verify",)),
    EntryPoint("bounds", "alt_min", ("altbound", "verify")),
    EntryPoint("bounds", "alt_sigma", ("audit",)),
    EntryPoint("coloring", "chromatic_number", ("chromatic", "verify")),
    EntryPoint(
        "coloring", "chromatic_at_most", ("altbound", "verify"),
        yes_metric="coloring.chromatic_at_most.yes_frac", yes=bool,
    ),
    EntryPoint("kneser", "kneser_graph", ("chromatic", "verify", "audit")),
    EntryPoint(
        "audit", "audit", ("audit",),
        yes_metric="audit.witness_frac", yes=lambda out: type(out).__name__ == "Witness",
    ),
    EntryPoint("audit", "neighbors", ("audit",)),
    EntryPoint("audit", "AuditContext.level", ("audit",)),
    EntryPoint("core", "vertex_cap", ("altbound", "verify"), timed=False),
)


def _where(owner, name: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{name}"
    return f"{owner.__name__}.{name}"


class Record:
    __slots__ = ("calls", "self_s", "yes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.yes = 0


class Tracer:
    """Installs wrappers for the duration of a ``with tracer.installed():``.

    ``records`` accumulate across installations; ``root_s`` is the summed
    duration of outermost spans, i.e. the time the program ran.
    """

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.records = {ep.name: Record() for ep in entry_points}
        self.missing: list[str] = []
        self.namespaces: dict[str, list[str]] = {}
        self.root_s = 0.0
        self._stack: list[list[float]] = []

    def _timed(self, ep: EntryPoint, fn):
        rec = self.records[ep.name]
        stack = self._stack
        yes = ep.yes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                rec.calls += 1
                rec.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
            if yes is not None and yes(out):
                rec.yes += 1
            return out

        return wrapper

    def _counted(self, ep: EntryPoint, fn):
        rec = self.records[ep.name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _targets(self, ep: EntryPoint):
        """(owner, attribute, original) for every binding of the entry point."""
        try:
            owner = importlib.import_module(f"altermatic.{ep.module}")
        except ImportError:
            return None
        *path, attr = ep.qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return None
        if path:
            return [(owner, attr, original)]
        bindings = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "altermatic" or mod_name.startswith("altermatic.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    bindings.append((mod, name, original))
        return bindings

    @contextmanager
    def installed(self):
        patched = []
        self.missing = []
        try:
            for ep in self.entry_points:
                targets = self._targets(ep)
                if not targets:
                    self.missing.append(ep.name)
                    continue
                wrapper = (self._timed if ep.timed else self._counted)(ep, targets[0][2])
                self.namespaces[ep.name] = sorted(_where(owner, name) for owner, name, _ in targets)
                for owner, name, original in targets:
                    setattr(owner, name, wrapper)
                    patched.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def flagged(self, workload: str) -> list[str]:
        """Entry points not found, or silent on a workload that must reach them."""
        silent = [
            ep.name for ep in self.entry_points
            if workload in ep.expected and ep.name not in self.missing and self.records[ep.name].calls == 0
        ]
        return [f"{name} (not found)" for name in self.missing] + [f"{name} (no calls)" for name in silent]
