"""Span tracing of the shiftflow layers, installed from outside the package.

`Tracer.install` replaces (and `uninstall` restores), in the namespace of every module that binds
it, each function one shiftflow module imports from another (for
example `moves.enumerate_language`, `entropy._natural_edge_shift`),
every function the package exports, the functions of modules that other
code reaches as module objects (`jsonio` from `cli`), `cli.main`, and the
public methods of the graph, presentation, SFT and pipeline classes.
The word classes are wrapped only in the package namespace, so the
`words` layer sees the benchmark's own direct calls and nothing that
happens inside other layers.

Spans (name, start, end, parent) are kept in memory while `recording`
is set and written out by `write`.  A span's self time is its duration
minus the time its child spans cover; it is added to the layer of the
module that defines the function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("words", "sft", "graphs", "presentations", "invariants", "entropy", "moves", "sgap", "jsonio", "cli")
MAX_SPANS = 2_000_000
WORD_CLASSES = ("Word", "PeriodicOrbit", "Alphabet")
METHOD_CLASSES = ("DirectedGraph", "LabeledGraph", "ForbiddenSetSFT", "MovePipeline")


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.top_s = 0.0
        self.language_words = 0
        self._stack: list[list] = []
        # (owner, attribute, original, wrapper), filled on first install.
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation -------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self
        count_words = name == "sft.enumerate_language"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.span_start)
            if index < MAX_SPANS:
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                tracer.dropped += 1
                index = -2
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_s += duration
                if index >= 0:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end
            if count_words:
                tracer.language_words += len(result)
            return result

        return traced

    def install(self) -> None:
        if not self._patches:
            self._find_targets()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in reversed(self._patches):
            setattr(owner, attr, fn)

    def _find_targets(self) -> None:
        import shiftflow

        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("shiftflow.") and isinstance(mod, types.ModuleType)
        }

        def layer_of(obj) -> str | None:
            module = getattr(obj, "__module__", "") or ""
            layer = module.split(".", 1)[1] if module.startswith("shiftflow.") else None
            return layer if layer in LAYERS else None

        targets: dict[tuple[int, str], tuple[object, str, object, str]] = {}

        def add(owner, attr: str, fn) -> None:
            layer = layer_of(fn)
            if layer is not None:
                targets[(id(owner), attr)] = (owner, attr, fn, layer)

        # Names one module imports from another, in the importer's namespace.
        for name, mod in modules.items():
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and layer_of(value) not in (None, name):
                    add(mod, attr, value)
        # Modules that other modules hold as module objects: their own functions.
        for mod in modules.values():
            for value in vars(mod).values():
                if isinstance(value, types.ModuleType) and value.__name__.startswith("shiftflow."):
                    own = value.__name__.split(".", 1)[1]
                    for attr, fn in vars(value).items():
                        if inspect.isfunction(fn) and layer_of(fn) == own:
                            add(value, attr, fn)
        if "cli" in modules:
            add(modules["cli"], "main", modules["cli"].main)
        # Everything the package exports; word classes act as constructors.
        for attr in shiftflow.__all__:
            value = getattr(shiftflow, attr)
            if inspect.isfunction(value) or attr in WORD_CLASSES:
                add(shiftflow, attr, value)
        # Public methods of the structural classes, patched on the class.
        for attr in METHOD_CLASSES:
            cls = getattr(shiftflow, attr)
            for meth, fn in vars(cls).items():
                if inspect.isfunction(fn) and not meth.startswith("__"):
                    add(cls, meth, fn)

        for owner, attr, fn, layer in targets.values():
            wrapper = self._wrap(fn, layer, f"{layer}.{getattr(fn, '__qualname__', attr)}")
            self._patches.append((owner, attr, fn, wrapper))

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """Spans as CSV: name, start, end, parent (row index; -1 at top level, -2 when that span was dropped)."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start,end,parent\n")
            names = self.names
            for i in range(len(self.span_start)):
                f.write(f"{names[self.span_name[i]]},{self.span_start[i]:.9f},{self.span_end[i]:.9f},{self.span_parent[i]}\n")
