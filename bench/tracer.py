"""Span recorder for traced passes.

The benchmark wraps divlab's public functions from outside the package, at
every name each one is looked up under (the defining module, the package
re-export and every `from ... import` alias), so a call made through any of
them opens a span.  Spans are kept in memory and summarised at the end of
the pass: a span's self time is its duration minus the time its child spans
cover.  Counts are read from the public result objects at the same
boundaries.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

# (layer.function metric prefix, module, attribute path within the module)
TARGETS = (
    ("cli.main", "divlab.cli", "main"),
    ("search.max_c_diversity", "divlab.search", "max_c_diversity"),
    ("search.max_c_diversity_exact", "divlab.search", "max_c_diversity_exact"),
    ("search.max_c_diversity_heuristic", "divlab.search", "max_c_diversity_heuristic"),
    ("search.max_size_with_degree_cap", "divlab.search", "max_size_with_degree_cap"),
    ("search.extremal_c_diversity_families", "divlab.search", "extremal_c_diversity_families"),
    ("constructions.full_star", "divlab.constructions", "full_star"),
    ("constructions.family_fi", "divlab.constructions", "family_fi"),
    ("constructions.family_triangle", "divlab.constructions", "family_triangle"),
    ("constructions.fano_families", "divlab.constructions", "fano_families"),
    ("constructions.family_uvw", "divlab.constructions", "family_uvw"),
    ("constructions.example_t", "divlab.constructions", "example_t"),
    ("cross.verify_lemma_fk", "divlab.cross", "verify_lemma_fk"),
    ("cross.verify_hilton", "divlab.cross", "verify_hilton"),
    ("canonical.canonical_form", "divlab.canonical", "canonical_form"),
    ("stability.find_stability_triple", "divlab.stability", "find_stability_triple"),
    ("stability.triangle_decomposition", "divlab.stability", "triangle_decomposition"),
    ("stability.verify_lemma_key2", "divlab.stability", "verify_lemma_key2"),
    ("family.Family", "divlab.family", "Family.__init__"),
    ("family.Family.trace", "divlab.family", "Family.trace"),
    ("family.Family.is_intersecting", "divlab.family", "Family.is_intersecting"),
    ("formulas.check_theorem", "divlab.formulas", "check_theorem"),
    ("formulas.prop_binom_ratio", "divlab.formulas", "prop_binom_ratio"),
    ("sweeps.run_sweep", "divlab.sweeps", "run_sweep"),
    ("io.read_family", "divlab.io", "read_family"),
    ("io.write_family", "divlab.io", "write_family"),
)

# Work counts the public result objects already carry.
COUNT_HOOKS: dict[str, Callable[[Any], dict[str, int]]] = {
    "search.max_c_diversity_heuristic": lambda r: {"search.heuristic.moves": r.nodes_explored},
    "search.max_size_with_degree_cap": lambda r: {
        "search.exact.nodes": r.nodes, "search.exact.truncated_caps": int(not r.exact)},
    "stability.find_stability_triple": lambda r: {
        "stability.triples_scanned": r.triples_scanned},
    "cross.verify_lemma_fk": lambda r: {"cross.pairs": r.pairs_checked},
    "cross.verify_hilton": lambda r: {
        "cross.pairs": r.pairs_checked, "cross.shifts": r.shifts_checked},
    "sweeps.run_sweep": lambda r: {"sweeps.rows": len(r)},
}
COUNTS = ("search.heuristic.moves", "search.exact.nodes", "search.exact.truncated_caps",
          "stability.triples_scanned", "cross.pairs", "cross.shifts", "sweeps.rows")
# rate metric -> (count, function whose self time it is measured against)
RATES = {
    "search.heuristic.moves_per_s": ("search.heuristic.moves", "search.max_c_diversity_heuristic"),
    "search.exact.nodes_per_s": ("search.exact.nodes", "search.max_size_with_degree_cap"),
    "stability.triples_per_s": ("stability.triples_scanned", "stability.find_stability_triple"),
}
STATS = ("calls", "self_s", "total_s")

# Float slack for comparing sums of perf_counter differences.
EPS = 1e-9


def _namespaces(extra: Iterable[Any]) -> list[Any]:
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "divlab" or name.startswith("divlab."))]
    return mods + [m for m in extra if m not in mods]


class Tracer:
    """Wraps TARGETS for the lifetime of one pass and records their spans.

    Spans are recorded only inside `begin_job`/`end_job`, so output checks
    made between jobs cost nothing and count for no layer.
    """

    def __init__(self) -> None:
        # (span id, name, start, end, parent span id or None, job id)
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._next_id = 0
        self._job: str | None = None
        self._patches: list[tuple[Any, str, Any]] = []
        self._wrappers: dict[int, Callable] = {}  # kept alive so ids stay unique

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self._job))
            if hook is not None:
                for key, value in hook(result).items():
                    self.counts[key] += value
            return result

        self._wrappers[id(traced)] = traced
        return traced

    def install(self, extra_namespaces: Iterable[Any] = ()) -> None:
        """Replace every name under which a target is reachable by its wrapper."""
        spaces = _namespaces(extra_namespaces)
        for name, modname, path in TARGETS:
            owner = importlib.import_module(modname)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if owner_path:  # a method: its class is the only place it is looked up
                self._patch(owner, attr, original, wrapper)
                continue
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._patch(space, key, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self, extra_namespaces: Iterable[Any] = ()) -> list[str]:
        """Put every original back; return the names still not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if vars(owner).get(attr) is not original]
        for space in _namespaces(extra_namespaces):
            objs = list(vars(space).items())
            objs += [(f"{k}.{a}", v) for k, c in objs if isinstance(c, type)
                     for a, v in vars(c).items()]
            left += [f"{space.__name__}.{key}" for key, value in objs
                     if id(value) in self._wrappers]
        self._patches.clear()
        return left

    # -- recording ----------------------------------------------------------

    def begin_job(self, job: str) -> None:
        self._job = job

    def end_job(self) -> None:
        self._job = None

    def summary(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics from the recorded spans, and the self-check problems.

        total_s sums only the outermost span of each name, so a function that
        reaches itself through another wrapped one is not counted twice.
        """
        names = {sid: name for sid, name, *_ in self.spans}
        parents = {sid: parent for sid, _, _, _, parent, _ in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = {sid: end - start - child_time[sid] for sid, _, start, end, _, _ in self.spans}
        child_self: dict[int, float] = defaultdict(float)
        for sid, parent in parents.items():
            if parent is not None:
                child_self[parent] += self_time[sid]

        metrics = {f"{name}.{stat}": 0.0 for name, _, _ in TARGETS for stat in STATS}
        problems = []
        for sid, name, start, end, parent, job in self.spans:
            duration = end - start
            if child_self[sid] > duration + EPS or child_time[sid] > duration + EPS:
                problems.append(f"span {sid} ({name}, job {job}): children exceed the parent")
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += self_time[sid]
            ancestor = parent
            while ancestor is not None and names[ancestor] != name:
                ancestor = parents[ancestor]
            if ancestor is None:
                metrics[f"{name}.total_s"] += duration
        metrics.update(self.counts)
        for rate, (count, name) in RATES.items():
            busy = metrics[f"{name}.self_s"]
            metrics[rate] = self.counts[count] / busy if busy > 0 else 0.0
        return metrics, problems

    def dump(self) -> dict[str, Any]:
        """The recorded spans, column-wise, for writing out at the end of a pass."""
        columns = ("id", "name", "start", "end", "parent", "job")
        return {"columns": columns, "spans": self.spans}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in report order."""
    return ([f"{name}.{stat}" for name, _, _ in TARGETS for stat in STATS]
            + list(COUNTS) + list(RATES))
