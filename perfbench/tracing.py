"""Measurement from outside the library: cache discovery and clearing, and
a span tracer that wraps repst's public functions and methods in place.

Nothing under src/ is edited.  The tracer swaps each target for a wrapper in
every repst namespace that holds it (so `from .exact import x` bindings are
traced too) and on the class for methods, and puts the originals back on
`uninstall`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import sys
from array import array
from pathlib import Path
from time import perf_counter


def load_modules() -> list:
    """Import repst and every submodule it ships."""
    import repst

    for info in pkgutil.iter_modules(repst.__path__):
        importlib.import_module(f"repst.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "repst" or name.startswith("repst.")]


def _candidates(modules):
    for mod in modules:
        for value in vars(mod).values():
            yield value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr in vars(value).values():
                    yield getattr(attr, "__func__", getattr(attr, "fget", attr))


def discover_caches(modules) -> dict[str, object]:
    """Every functools cache reachable from the repst modules, by name.

    Follows `__wrapped__` chains, so a cache hidden behind the tracer's own
    wrappers (or any other decorator) is found at the original.
    """
    found: dict[int, object] = {}
    for value in _candidates(modules):
        seen = set()
        while value is not None and id(value) not in seen:
            seen.add(id(value))
            if callable(getattr(value, "cache_clear", None)) and \
                    callable(getattr(value, "cache_info", None)):
                found.setdefault(id(value), value)
            value = getattr(value, "__wrapped__", None)
    return {f"{fn.__module__.removeprefix('repst.')}.{fn.__qualname__}": fn
            for fn in found.values()}


def clear_caches(caches: dict[str, object]) -> None:
    for name, fn in caches.items():
        fn.cache_clear()
        if fn.cache_info().currsize != 0:
            raise RuntimeError(f"cache {name} still holds entries after cache_clear()")


def cache_stats(caches: dict[str, object]) -> dict[str, tuple[int, int, int]]:
    """(hits, misses, currsize) per cache."""
    infos = {name: fn.cache_info() for name, fn in caches.items()}
    return {name: (info.hits, info.misses, info.currsize) for name, info in infos.items()}


class Tracer:
    """Spans in memory: name, start, end, parent span and item per call,
    plus per-name calls, total and self seconds for the current pass.

    A span's self time is its duration minus that of its direct children.
    Total time counts only the outermost of nested spans of one name, so a
    recursive function is not counted twice.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.span_pass = array("I")
        self.item = -1
        self.pass_index = 0
        self.passes: list[dict[str, tuple[int, float, float]]] = []
        self._agg: list[list] = []
        self._depth: list[int] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self._agg.append([0, 0.0, 0.0])
        self._depth.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        agg, depth, stack = self._agg[nid], self._depth, self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, items, passes = self.span_parent, self.span_item, self.span_pass

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(stack[-1][0] if stack else -1)
            items.append(self.item)
            passes.append(self.pass_index)
            frame = [index, 0.0]
            stack.append(frame)
            depth[nid] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[nid] -= 1
                elapsed = end - start
                agg[0] += 1
                agg[2] += elapsed - frame[1]
                if not depth[nid]:
                    agg[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                starts[index] = start
                ends[index] = end

        return traced

    def install(self, modules, targets) -> None:
        """targets: (span name, module name, attribute or Class.method)."""
        by_name = {mod.__name__: mod for mod in modules}
        for span, module, attr in targets:
            owner = by_name[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = vars(owner)[cls_name]
                holders = [owner]
            else:
                holders = modules
            original = vars(owner)[attr]
            wrapper = self.wrap(span, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def end_pass(self) -> None:
        """Close the current pass's per-name totals and start the next."""
        self.passes.append({name: tuple(agg) for name, agg in zip(self.names, self._agg)})
        for agg in self._agg:
            agg[:] = [0, 0.0, 0.0]
        self.pass_index += 1

    def write_spans(self, path: Path, item_keys: list[str]) -> int:
        """Write every span as a gzipped TSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tpass\titem\n")
            for i in range(len(self.span_name)):
                item = self.span_item[i]
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_pass[i]}\t"
                          f"{item_keys[item] if item >= 0 else '-'}\n")
        return len(self.span_name)
