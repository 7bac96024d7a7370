"""Outside-in tracer: spans around the public functions of ``fta``.

The package binds names with ``from .x import f``, so patching
``fta.automaton.run`` alone would miss ``fta.essential.run``.
:class:`Tracer` therefore replaces every module binding of each traced
function with one wrapper.  A self-recursive function keeps its own
module's binding, so its recursion is neither counted nor deepened by a
wrapper frame; calls from other modules are still traced.

Spans live in flat arrays while tracing runs and are aggregated (or
written out) afterwards.  Each span has a name, start, end, parent span
and command id; its self time is its duration minus its children's.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import types
from array import array
from time import perf_counter


def public_functions():
    """Functions the package exports, plus the CLI entry point."""
    import fta
    import fta.cli

    found = {id(fta.cli.main): fta.cli.main}
    for obj in vars(fta).values():
        if (isinstance(obj, types.FunctionType) and obj.__module__.startswith("fta.")
                and not inspect.isgeneratorfunction(obj)):
            found[id(obj)] = obj
    return list(found.values())


def _names_used(code) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names_used(const)
    return names


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.returned_true = array("b")
        self.current_command = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fta" or name.startswith("fta."))]
        for fn in public_functions():
            wrapper = self._wrap(fn)
            home = sys.modules[fn.__module__]
            recursive = fn.__name__ in _names_used(fn.__code__)
            for module in modules:
                if recursive and module is home:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn):
        idx = len(self.names)
        self.names.append(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}")
        stack = self._stack
        name_id, parent, command = self.name_id, self.parent, self.command
        start, end, raised, returned_true = (self.start, self.end, self.raised,
                                             self.returned_true)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(idx)
            parent.append(stack[-1])
            command.append(tracer.current_command)
            raised.append(0)
            returned_true.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if result is True:
                returned_true[sid] = 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total_s, self_s, raised, returned_true."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0,
                        "returned_true": 0} for name in self.names}
        for sid in range(n):
            s = stats[self.names[self.name_id[sid]]]
            dur = end[sid] - start[sid]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[sid]
            s["raised"] += self.raised[sid]
            s["returned_true"] += self.returned_true[sid]
        return stats

    def write(self, path) -> None:
        """Gzipped, one tab-separated line per span, times in microseconds
        from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tname\tparent\tcommand\tstart_us\tend_us\traised\n")
            for sid in range(len(self.start)):
                out.write(f"{sid}\t{self.names[self.name_id[sid]]}\t{self.parent[sid]}\t"
                          f"{self.command[sid]}\t{(self.start[sid] - t0) * 1e6:.1f}\t"
                          f"{(self.end[sid] - t0) * 1e6:.1f}\t{self.raised[sid]}\n")
