"""Per-layer tracing of the ``quandles`` modules from outside the program.

``Tracer.install`` wraps every public function of the layer modules, and
the ``__init__`` of every public class, and rebinds each wrapper at every
module of the package that binds the original name (``from .core import
unchecked_quandle`` binds it in ``cover`` too).  Each call records a span;
a layer's self time is its spans' durations minus their child spans.
Spans stay in memory, up to SPAN_CAP of them, and are written out at the
end; the totals count every call.

Nothing is installed unless ``install`` is called, and ``uninstall`` puts
the library's own functions back, so untraced calls execute them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("core", "perms", "groups", "affine", "mesh", "cover", "iofmt", "cli")

# Per-element helpers called millions of times per run (once per
# permutation product); a span around each would cost more than the work
# it measures, so their time stays in the caller's self time.
UNWRAPPED = frozenset({"perms.compose", "perms.inverse", "perms.identity_perm"})

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()   # elements, bytes
        self.sizes: dict[str, int] = {}         # largest cover seen
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.item = -1                          # spans of one item share it
        self._stack: list[list[int]] = []       # [span id, child ns]
        self._next_id = 0
        self._patches: list[tuple] | None = None

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put the library's own functions back."""
        for owner, name, original, _ in self._patches:
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _find_patches(self) -> list[tuple]:
        """(owner, attribute, original or None, wrapper) for every public
        function at every module that binds it, and every public class's
        ``__init__``."""
        patches, wrappers = [], {}
        for short in LAYERS:
            mod = importlib.import_module(f"quandles.{short}")
            for name, obj in list(vars(mod).items()):
                layer = f"{short}.{name}"
                if (name.startswith("_") or layer in UNWRAPPED
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(layer, obj)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    patches.append((obj, "__init__", obj.__dict__.get("__init__"),
                                    self._wrap(layer, obj.__init__)))
        for modname, mod in list(sys.modules.items()):
            if modname != "quandles" and not modname.startswith("quandles."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    patches.append((mod, name, obj, wrappers[id(obj)]))
        return patches

    def _wrap(self, layer: str, fn):
        observe = OBSERVERS.get(layer) or (
            _count_bytes if layer.startswith("iofmt.format_") else None
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                self_ns = dur - frame[1]
                self.self_ns[layer] += self_ns
                self.calls[layer] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (span_id, parent, self.item, layer, start, dur, self_ns)
                    )
                else:
                    self.dropped_spans += 1
            if observe is not None:
                observe(self, layer, result)
            return result

        return traced

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Every layer's self ms and calls, per round of the workload."""
        out: dict[str, float] = {}
        for layer in sorted(self.calls):
            out[f"{layer}.ms"] = self.self_ns[layer] / 1e6 / rounds
            out[f"{layer}.calls"] = self.calls[layer] / rounds
        for key, value in self.counts.items():
            out[key] = value / rounds
        out.update(self.sizes)
        return out

    def dump(self, path, metrics: dict) -> None:
        spans = [
            {"id": s[0], "parent": s[1], "item": s[2], "name": s[3],
             "start_ns": s[4], "dur_ns": s[5], "self_ns": s[6]}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"metrics": metrics, "dropped_spans": self.dropped_spans,
                       "spans": spans}, fh)


def _count_elements(tracer: Tracer, layer: str, group) -> None:
    tracer.counts["perms.closure.elements"] += group.order


def _count_bytes(tracer: Tracer, layer: str, text: str) -> None:
    tracer.counts["iofmt.bytes_written"] += len(text.encode())


def _cover_sizes(tracer: Tracer, layer: str, result) -> None:
    a = result.group.order
    if a >= tracer.sizes.get("cover.A_order", 0):
        tracer.sizes.update({
            "cover.D_size": len(result.dis),
            "cover.T_size": result.transversal.size,
            "cover.A_order": a,
            "cover.A_table_mb": a * a * 4 / 1e6,
        })


OBSERVERS = {
    "perms.closure": _count_elements,
    "cover.build_cover": _cover_sizes,
}
