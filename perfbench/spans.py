"""In-memory span recorder for the traced benchmark run.

The traced run times the public entry points of each layer from outside:
``Tracer.install_attr`` swaps a timing wrapper in for a class attribute,
``Tracer.install_function`` for every module-level binding of a function,
and ``Tracer.uninstall`` puts the originals back. Nothing in ``src/``
knows about it, and the untraced run never creates a ``Tracer``.

A span is ``[name, start, end, parent index, attrs]``. Spans nest per
thread; a span's self time is its duration minus the durations of its
direct children, which never overlap because they run on the same thread.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Hook run when a wrapped call returns: (args, kwargs, result, attrs).
ExitHook = Callable[[tuple, dict, Any, dict], None]


class Tracer:
    """Records spans around wrapped calls and benchmark phases."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None])
        stack.append(idx)
        return idx

    def _exit(self, idx: int, attrs: dict | None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = attrs
        self._stack().pop()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict]:
        """Record one span around a block; the yielded dict becomes its attrs."""
        idx = self._enter(name)
        try:
            yield attrs
        finally:
            self._exit(idx, attrs or None)

    def wrap(self, fn: Callable, name: str, on_exit: ExitHook | None = None,
             on_enter: Callable[[tuple, dict, dict], None] | None = None) -> Callable:
        """``fn`` with a span around every call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            attrs: dict = {}
            if on_enter is not None:
                on_enter(args, kwargs, attrs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(idx, {"error": True})
                raise
            if on_exit is not None:
                on_exit(args, kwargs, result, attrs)
            self._exit(idx, attrs or None)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install_attr(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Wrap ``owner.attr`` (a class method or module function)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def install_function(self, fn: Callable, name: str, **hooks: Any) -> None:
        """Wrap every ``repro`` module-level binding of ``fn``.

        ``from x import f`` copies the binding into each importing module,
        so wrapping the defining module alone would miss those callers.
        """
        wrapped = self.wrap(fn, name, **hooks)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            if getattr(mod, fn.__name__, None) is fn:
                self._installed.append((mod, fn.__name__, fn))
                setattr(mod, fn.__name__, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def children_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def ancestor_named(self, idx: int, name: str) -> int:
        """Index of the nearest ancestor span called ``name``, or -1."""
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return parent
            parent = self.spans[parent][3]
        return -1

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line: name, start, end, parent, attrs."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "t0": t0, "t1": t1,
                                     "parent": parent, "attrs": attrs}) + "\n")
