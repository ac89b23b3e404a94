"""Spans and counters around the layers of `pomsetblock`, from outside it.

`Tracer.install(package)` rebinds the traced functions in every module of
the package that refers to them (and on their classes, for methods), so
calls between modules go through the wrappers too; `uninstall` puts the
originals back. Nothing under ``src/`` changes.

Per traced name the tracer keeps ``[calls, inclusive seconds, self
seconds]``, where self time is inclusive time minus the inclusive time of
traced calls made inside it. Per-entry helpers (`lee_weight`,
`block_max_lee`) are not wrapped: they run once per coordinate, and a span
there would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

MODULES = ("pomset", "balls", "weight_dist", "block_space", "multiset",
           "codes", "chain", "fileio")
SKIP = {"lee_weight", "block_max_lee"}
METHODS = {
    "Pomset": ("ideals", "ideals_of_cardinality", "ideals_by_maximal_count",
               "generated_counts"),
    "BlockSpace": ("vectors", "coord_tuples"),
    "BlockVector": ("weight",),
    "Code": ("min_distance", "from_generators", "linear"),
}
ENUMERATORS = {"ideals", "ideals_of_cardinality", "ideals_by_maximal_count"}
MEMBERSHIP = {"in_i_ball", "in_r_ball"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._enum_inner: list[bool] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}
        self.counts = {}

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # ----- wrappers --------------------------------------------------------------

    def _timed(self, name: str, fn):
        stack, depth = self._stack, self._depth

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[2] += dt - frame[0]
                if not depth[name]:  # a re-entered name counts its time once
                    st[1] += dt
                if stack:
                    stack[-1][0] += dt
        return span

    def _enumerator(self, fn):
        """Count each ideal once, in the innermost enumerator returning it."""
        marks = self._enum_inner

        def enumerate_ideals(*args, **kwargs):
            marks.append(False)
            try:
                out = fn(*args, **kwargs)
            finally:
                inner = marks.pop()
            if not inner:
                self._bump("pomset.ideals_enumerated", len(out))
            if marks:
                marks[-1] = True
            return out
        return enumerate_ideals

    def _membership(self, fn):
        def member(*args, **kwargs):
            hit = fn(*args, **kwargs)
            self._bump("balls.membership_tests")
            if hit:
                self._bump("balls.membership_hits")
            return hit
        return member

    def _yielded(self, fn):
        """Count each item once, in the innermost traced generator
        (`vectors` draws its items from `coord_tuples`)."""
        key = "block_space.vectors_yielded"

        def generate(*args, **kwargs):
            it = iter(fn(*args, **kwargs))

            def counted():
                while True:
                    before = self.counts.get(key, 0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    if self.counts.get(key, 0) == before:
                        self._bump(key)
                    yield item
            return counted()
        return generate

    def _constructed(self, fn):
        def init(*args, **kwargs):
            self._bump("multiset.constructed")
            return fn(*args, **kwargs)
        return init

    def _from_generators(self, fn):
        def from_generators(*args, **kwargs):
            code = fn(*args, **kwargs)
            self._bump("codes.from_generators.words", len(code))
            return code
        return from_generators

    # ----- installing -------------------------------------------------------------

    def _wrap(self, mod: str, name: str, fn):
        if name in ("vectors", "coord_tuples"):  # generators: counted, not timed
            return self._yielded(fn)
        if name in ENUMERATORS:
            fn = self._enumerator(fn)
        elif name in MEMBERSHIP:
            fn = self._membership(fn)
        elif name == "from_generators":
            fn = self._from_generators(fn)
        return self._timed(f"{mod}.{name}", fn)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        mods = {name: importlib.import_module(f"{package.__name__}.{name}")
                for name in MODULES}
        everywhere = [package] + [importlib.import_module(f"{package.__name__}.{n}")
                                  for n in MODULES + ("cli",)]
        for mod_name, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or name in SKIP
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(mod_name, name, fn)
                for where in everywhere:
                    if vars(where).get(name) is fn:
                        self._set(where, name, wrapped)
            for cls_name, methods in METHODS.items():
                cls = vars(mod).get(cls_name)
                if cls is None or cls.__module__ != mod.__name__:
                    continue
                for name in methods:
                    raw = cls.__dict__[name]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(mod_name, name, raw.__func__))
                    elif isinstance(raw, property):
                        new = property(self._wrap(mod_name, name, raw.fget))
                    else:
                        new = self._wrap(mod_name, name, raw)
                    self._set(cls, name, new)
        multiset_cls = mods["multiset"].Multiset
        self._set(multiset_cls, "__init__", self._constructed(multiset_cls.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
