"""Spans around every public entry point of cechfib, installed from outside.

Each public function of a cechfib module is replaced, under every name
it is bound to in the package, by a wrapper that records a span: the
function, its parent span, start and end.  Explicit ``__init__`` methods
of the public classes are wrapped the same way.  A layer is the module
that defines the function.  Spans stay in memory in flat arrays; self
time (a span's duration minus its children's) is computed once the
traced passes end.  Counters that need to look at arguments or results
run inside a span of the pseudo-layer ``trace`` so that their cost is
not charged to any module.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array

LAYERS = ("complexes", "snf", "homology", "groups", "covers", "cocycles",
          "gerbes", "bundles", "classifying", "io", "cli")

TRACE = "trace"
HARNESS = "harness"
SPAN_LIMIT = 100_000


def _nonzeros(mat, shape):
    rows, cols = (int(shape[0]), int(shape[1])) if shape is not None else (
        len(mat), len(mat[0]) if len(mat) else 0)
    count = 0
    for i in range(rows):
        row = mat[i]
        count += cols - row.count(0) if len(row) == cols else sum(
            1 for j in range(cols) if row[j])
    return rows * cols, count


def _bundle_of(result):
    return result[0] if isinstance(result, tuple) else result


class Tracer:
    def __init__(self):
        self.names = []          # function id -> qualified name
        self.layer_of = []       # function id -> layer
        self._ids = {}
        self.parent = array("q")
        self.func = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {}
        self._originals = []

    # -- recording -------------------------------------------------------

    def func_id(self, layer, name):
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[key]

    def open(self, fid):
        sid = len(self.func)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.func.append(fid)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def mark(self):
        """Position in the span log, to split it by pass."""
        return len(self.func)

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, layer, name, before=None, after=None):
        fid = self.func_id(layer, name)
        if before is not None or after is not None:
            tid = self.func_id(TRACE, f"trace.count:{name}")
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                t = tracer.open(tid)
                before(args, kwargs)
                tracer.close(t)
            sid = tracer.open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                t = tracer.open(tid)
                after(args, result)
                tracer.close(t)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self, layer, name):
        """Per-layer counters, keyed by the function they observe."""
        count = self.count
        if name == "SimplicialComplex.__init__":
            return None, lambda a, r: count("complexes.simplices_out",
                                            len(a[0].simplices))
        if name == "smith_normal_form":
            def before(a, k):
                cells, nonzeros = _nonzeros(a[0], a[1] if len(a) > 1
                                            else k.get("shape"))
                count("snf.cells_in", cells)
                count("snf.nonzeros_in", nonzeros)
            return before, None
        if name == "cech_nerve":
            return None, lambda a, r: count("covers.nerve_simplices_out",
                                            len(r.witnesses))
        if name == "enumerate_homs":
            return None, lambda a, r: count("groups.homs_out", len(r))
        if name == "are_equivalent":
            return None, lambda a, r: count("cocycles.equiv_hits",
                                            int(r.equivalent))
        if name == "gerbes_equivalent":
            return None, lambda a, r: count("gerbes.equiv_hits",
                                            int(r.equivalent))
        if name == "bundle_isomorphism":
            return None, lambda a, r: count("bundles.iso_found",
                                            int(r is not None))
        if layer == "bundles" and name in (
                "total_space", "skeletal_construction", "pullback",
                "restrict_bundle", "patch_bundles", "product_bundle",
                "mapping_cylinder_bundle"):
            return None, lambda a, r: count(
                "bundles.total_simplices_out",
                len(_bundle_of(r).total.simplices))
        return None, None

    def install(self, package="cechfib"):
        """Wrap public functions and explicit public __init__ methods."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == package
                                    or name.startswith(package + "."))
        }
        wrappers = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith(package + "."):
                    continue
                if obj.__name__.startswith("_"):
                    continue
                layer = owner.rsplit(".", 1)[1]
                if obj not in wrappers:
                    before, after = self._hooks(layer, obj.__name__)
                    wrappers[obj] = self._wrap(obj, layer, obj.__name__,
                                               before, after)
                self._originals.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        seen = set()
        for mod in modules.values():
            for attr, cls in list(vars(mod).items()):
                if (not inspect.isclass(cls) or attr.startswith("_")
                        or cls in seen
                        or not (cls.__module__ or "").startswith(package + ".")
                        or dataclasses.is_dataclass(cls)
                        or issubclass(cls, BaseException)
                        or "__init__" not in vars(cls)):
                    continue
                seen.add(cls)
                layer = cls.__module__.rsplit(".", 1)[1]
                init = vars(cls)["__init__"]
                name = f"{cls.__name__}.__init__"
                before, after = self._hooks(layer, name)
                self._originals.append((cls, "__init__", init))
                setattr(cls, "__init__",
                        self._wrap(init, layer, name, before, after))
        return len(wrappers) + len(seen)

    def uninstall(self):
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals.clear()

    # -- analysis --------------------------------------------------------

    def functions(self, lo, hi):
        """Per-function [calls, total seconds, self seconds] for spans lo..hi-1."""
        child = {}
        for sid in range(lo, hi):
            p = self.parent[sid]
            if p >= lo:
                child[p] = child.get(p, 0.0) + self.end[sid] - self.start[sid]
        table = {}
        for sid in range(lo, hi):
            row = table.setdefault(self.func[sid], [0, 0.0, 0.0])
            duration = self.end[sid] - self.start[sid]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child.get(sid, 0.0)
        return table

    def layers(self, table):
        """Per-layer (calls, self seconds) from a function table."""
        calls, seconds = {}, {}
        for fid, (n, _, own) in table.items():
            layer = self.layer_of[fid]
            calls[layer] = calls.get(layer, 0) + n
            seconds[layer] = seconds.get(layer, 0.0) + own
        return calls, seconds

    def write(self, directory, stem, lo, hi, table):
        """The function table, and the first SPAN_LIMIT spans lo..hi-1.

        A traced classify pass records millions of spans, so the span
        log is cut at SPAN_LIMIT; the function table covers the pass.
        """
        with open(directory / f"{stem}-functions.tsv", "w",
                  encoding="utf-8") as out:
            out.write("layer\tname\tcalls\ttotal_s\tself_s\n")
            for fid, (n, total, own) in sorted(
                    table.items(), key=lambda item: -item[1][2]):
                out.write(f"{self.layer_of[fid]}\t{self.names[fid]}\t{n}"
                          f"\t{total:.6f}\t{own:.6f}\n")
        if hi <= lo:
            return
        origin = self.start[lo]
        with open(directory / f"{stem}-spans.tsv", "w", encoding="utf-8") as out:
            out.write(f"# first {min(hi - lo, SPAN_LIMIT)} of {hi - lo} spans\n")
            out.write("id\tparent\tlayer\tname\tstart_us\tend_us\n")
            for sid in range(lo, min(hi, lo + SPAN_LIMIT)):
                fid = self.func[sid]
                parent = self.parent[sid] - lo if self.parent[sid] >= lo else -1
                out.write(
                    f"{sid - lo}\t{parent}\t{self.layer_of[fid]}"
                    f"\t{self.names[fid]}\t{(self.start[sid] - origin) * 1e6:.1f}"
                    f"\t{(self.end[sid] - origin) * 1e6:.1f}\n")
