"""Spans and counters recorded from outside the library.

The library modules import each other's functions by name
(``from .tmulticat import check_tmulticat``), so a wrapper only takes effect
if it replaces the original object in every ``skewcat.*`` namespace that
holds it.  Methods are patched on their class.  Everything is undone by
``uninstall``, so untraced and traced passes can alternate in one process.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs wrapped in a span.
SPAN_FUNCTIONS = [
    ("cli", "main"),
    ("fincat", "check_category"),
    ("fincat", "category_from_json"),
    ("catoperad", "check_operad_axioms"),
    ("tmulticat", "multicat_from_json"),
    ("tmulticat", "check_tmulticat"),
    ("tmulticat", "multicat_to_json"),
    ("tmulticat", "iso_search"),
    ("representability", "analyze"),
    ("representability", "find_universal"),
    ("representability", "find_closed_structure"),
    ("representability", "is_left_representable"),
    ("colaxalg", "check_colax_algebra"),
    ("skewmon", "check_skew_monoidal"),
    ("skewmon", "monoidal_iso_search"),
    ("skewmon", "skewmon_from_json"),
    ("correspondence", "monoidal_to_multicat"),
    ("correspondence", "multicat_to_monoidal"),
    ("correspondence", "roundtrip_monoidal"),
    ("correspondence", "roundtrip_multicat"),
    ("search", "enumerate_skew_structures"),
]

# (module, class, method) wrapped in a span.
SPAN_METHODS = [("tmulticat", "TMulticategory", "materialize")]

# (module, class, method) that only count calls: they run millions of times,
# and a span each would cost more than the work it measures.
COUNTED_METHODS = [
    ("tmulticat", "TMulticategory", "substitute"),
    ("tmulticat", "TMulticategory", "act"),
    ("colaxalg", "NormalColaxAlgebra", "gamma"),
    ("colaxalg", "NormalColaxAlgebra", "m_mor"),
    ("fincat", "FinCategory", "comp"),
    ("catoperad", "CatOperad", "component"),
]

ROOT = "bench.op"
SEARCH = "search.enumerate_skew_structures"
SKEW_CHECK = "skewmon.check_skew_monoidal"


def span_names() -> list[str]:
    return ([ROOT] + [f"{mod}.{fn}" for mod, fn in SPAN_FUNCTIONS]
            + [f"{mod}.{meth}" for mod, _, meth in SPAN_METHODS])


def counter_names() -> list[str]:
    return [f"{mod}.{meth}" for mod, _, meth in COUNTED_METHODS]


class Tracer:
    """In-memory span log.  A span is [name, start, end, parent, op, error];
    ``parent`` indexes ``spans`` (-1 for an operation's root span)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {name: 0 for name in counter_names()}
        self.subst_entries = 0
        self.found = 0
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, error: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = error
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Run ``fn`` inside the root span of operation ``op_id``."""
        self._op = op_id
        idx = self._open(ROOT)
        error = True
        try:
            result = fn()
            error = False
            return result
        finally:
            self._close(idx, error)

    def _span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                self._close(idx, error)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_json(self, doc) -> None:
        self.subst_entries += len(doc["subst"])

    def _on_search(self, found) -> None:
        self.found += len(found)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "skewcat" or name.startswith("skewcat."))]
        hooks = {"tmulticat.multicat_to_json": self._on_json, SEARCH: self._on_search}
        for mod, fn in SPAN_FUNCTIONS:
            name = f"{mod}.{fn}"
            original = getattr(sys.modules[f"skewcat.{mod}"], fn)
            wrapper = self._span(name, original, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        for mod, cls, meth in SPAN_METHODS + COUNTED_METHODS:
            klass = getattr(sys.modules[f"skewcat.{mod}"], cls)
            original = vars(klass)[meth]
            name = f"{mod}.{meth}"
            wrap = self._span(name, original) if (mod, cls, meth) in SPAN_METHODS \
                else self._counter(name, original)
            self._set(klass, meth, wrap)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the duration of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self) -> dict:
        own = self.self_times()
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.errors"] = 0
        skew_checks_in_search = 0
        for span, self_s in zip(self.spans, own):
            name = span[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name}.errors"] += span[5]
            if name == SKEW_CHECK and span[3] >= 0 and self.spans[span[3]][0] == SEARCH:
                skew_checks_in_search += 1
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        out["tmulticat.subst_entries"] = self.subst_entries
        out["search.yield_ratio"] = (self.found / skew_checks_in_search
                                     if skew_checks_in_search else 0.0)
        return out

    def op_balance(self) -> float:
        """Largest gap, over operations, between the summed self times of an
        operation's spans and the duration of its root span."""
        own = self.self_times()
        summed: dict[int, float] = {}
        root: dict[int, float] = {}
        for span, self_s in zip(self.spans, own):
            summed[span[4]] = summed.get(span[4], 0.0) + self_s
            if span[3] < 0:
                root[span[4]] = span[2] - span[1]
        return max((abs(summed[op] - root[op]) for op in root), default=0.0)
