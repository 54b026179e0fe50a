"""Outside-in layer tracing: spans around calls into the program's layers.

The program carries no benchmark code.  :class:`Tracer` rebinds the
public functions and methods of each layer, in every module and class
that binds them, to timing wrappers, and :meth:`Tracer.uninstall` puts
the originals back.

* A span's **self time** is its duration minus the duration of traced
  spans nested in it on the same thread, so layer totals never
  double-count the layers they call.
* A generator (``all_extensions``, ``find_subgraph_isomorphisms``) is
  timed across its whole iteration: each ``next()`` is a span segment,
  and the consumer's work between items is not charged to it.  A plain
  wrapper would read 0 s, because calling a generator function runs
  none of its body.
* A call nested in a span of its own layer (a public function calling
  another of the same layer) adds time but not a call.
* Totals are kept per thread name, so the service's writer thread and a
  reader thread can be told apart.  Spans are kept in memory (up to
  ``max_spans``) and written out only at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

LayerName = Union[str, Callable[[tuple], str]]


class _ThreadState:
    __slots__ = ("name", "stack", "self_s", "calls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: List[list] = []  # frames: [layer, child_seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)


class Tracer:
    """Wraps layer entry points in place and accumulates self time per layer."""

    def __init__(self, max_spans: int = 20_000) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped_spans = 0

    # -- accounting ------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            self._states.append(state)  # list.append is atomic
        return state

    def _run(self, layer: str, call: Callable, count: bool):
        """Run ``call()`` as one span of ``layer``; returns its result."""
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        frame = [layer, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            own = duration - frame[1]
            state.self_s[layer] += own
            if parent is not None:
                parent[1] += duration
            if count and (parent is None or parent[0] != layer):
                state.calls[layer] += 1
                if len(self.spans) < self.max_spans:
                    self.spans.append(
                        (layer, state.name, start, duration, own, parent and parent[0])
                    )
                else:
                    self.dropped_spans += 1

    def _iterate(self, layer: str, generator):
        """Yield from ``generator``, timing each ``next()`` as a span segment."""
        try:
            while True:
                try:
                    item = self._run(layer, generator.__next__, count=False)
                except StopIteration:
                    return
                yield item
        finally:
            generator.close()

    def wrap(
        self,
        fn: Callable,
        layer: LayerName,
        on_exit: Optional[Callable[[tuple, object, float], None]] = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``layer`` is a name, or a function of the call's positional
        arguments returning one (``compute_support`` names its layer after
        the measure).  ``on_exit(args, result, seconds)`` sees every
        completed call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args)
            start = perf_counter()
            result = tracer._run(name, lambda: fn(*args, **kwargs), count=True)
            if on_exit is not None:
                on_exit(args, result, perf_counter() - start)
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(name, result)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(
        self, module_name: str, name: str, layer: LayerName, on_exit=None
    ) -> int:
        """Wrap a module-level function in every ``repro`` module binding it.

        ``from x import f`` copies the binding, so wrapping only the
        defining module would miss every importer.  Returns how many
        bindings were rebound (0, and noted in :attr:`missing`, when the
        function does not exist).
        """
        module = importlib.import_module(module_name)
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module_name}.{name}")
            return 0
        traced = self.wrap(original, layer, on_exit)
        rebound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, traced)
                    rebound += 1
        return rebound

    def patch_method(
        self, module_name: str, class_name: str, name: str, layer: LayerName,
        on_exit=None,
    ) -> int:
        """Wrap a method on a class and on every subclass that overrides it.

        Aliases in the same class body (``mine = refresh``) are rebound
        too.  Class and static methods keep their kind.
        """
        module = importlib.import_module(module_name)
        root = getattr(module, class_name, None)
        if root is None or not hasattr(root, name):
            self.missing.append(f"{module_name}.{class_name}.{name}")
            return 0
        rebound = 0
        pending, seen = [root], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            raw = cls.__dict__.get(name)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self.wrap(raw.__func__, layer, on_exit))
            else:
                replacement = self.wrap(raw, layer, on_exit)
            for attr, value in list(vars(cls).items()):
                if value is raw:
                    self._rebind(cls, attr, replacement)
                    rebound += 1
        return rebound

    def uninstall(self) -> None:
        """Restore every original binding (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def reset(self) -> None:
        """Forget all accumulated time, spans and missing entry points."""
        for state in list(self._states):
            state.self_s.clear()
            state.calls.clear()
        self.spans.clear()
        self.dropped_spans = 0
        self.missing.clear()

    def totals(self, thread: Optional[str] = None) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and outermost call counts per layer (one thread or all)."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for state in list(self._states):
            if thread is not None and state.name != thread:
                continue
            for layer, seconds in list(state.self_s.items()):
                self_s[layer] += seconds
            for layer, count in list(state.calls.items()):
                calls[layer] += count
        return self_s, calls

    def thread_names(self) -> List[str]:
        return sorted({state.name for state in self._states})

    def write_spans(self, path: str) -> None:
        """Write the kept spans as NDJSON (one object per line)."""
        keys = ("layer", "thread", "start", "seconds", "self_seconds", "parent")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
