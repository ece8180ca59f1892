"""Run-time span tracing of the toricstab layers, from outside the package.

Installing a Tracer replaces every public module-level function of each
layer module, plus a few hot methods, with a wrapper that records a span
(name, start, end, parent).  The replacement is made in the defining module
and in every package module that imported the function by name, so calls
such as ``hermite -> bareiss_rank`` or ``fans -> lp_feasible`` are seen too.
Uninstalling restores the originals, so untraced passes pay nothing.

Nothing under ``src/`` is edited; spans stay in memory until written out.
"""

import importlib
import inspect
import json
import time

LAYERS = ("exactla", "hermite", "polynomials", "complexes", "fans", "stability", "oracles", "cli")

# (module, class, method) pairs traced in addition to module-level functions
METHODS = (
    ("complexes", "SimplicialComplex", "is_face"),
    ("polynomials", "RationalPoly", "divmod"),
    ("polynomials", "RationalPoly", "from_roots"),
)

# spans of these functions also record len(result)
SIZED = frozenset({"complexes.minimal_non_faces"})


def load_layers(package="toricstab"):
    """Import every layer module and return {layer: module}."""
    return {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}


class Tracer:
    """Span recorder over the layer modules.

    ``spans`` holds (name_id, start, end, parent_index) tuples in call order;
    ``names`` maps name_id to a dotted name whose first part is the layer.
    """

    def __init__(self, modules):
        self.modules = dict(modules)
        self.names = []
        self.spans = []
        self.sizes = {}
        self._stack = [-1]
        self._plan = self._build_plan()

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _build_plan(self):
        originals = {}
        for layer, mod in self.modules.items():
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[val] = self._wrap(f"{layer}.{attr}", val)
        targets = list(self.modules.values())
        package = importlib.import_module(next(iter(self.modules.values())).__package__)
        targets.append(package)
        plan = []
        for mod in targets:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in originals:
                    plan.append((mod, attr, val, originals[val]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                plan.append((cls, meth, raw, classmethod(self._wrap(name, raw.__func__))))
            else:
                plan.append((cls, meth, raw, self._wrap(name, raw)))
        return plan

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        sizes = self.sizes
        clock = time.perf_counter
        sized = name in SIZED

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    sizes[idx] = len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    def reset(self):
        """Drop recorded spans (between passes)."""
        del self.spans[:]
        self.sizes.clear()
        del self._stack[1:]

    def snapshot(self):
        """The recorded spans of the current pass, detached from the recorder."""
        return {"names": list(self.names), "spans": list(self.spans), "sizes": dict(self.sizes)}


def write_spans(path, passes):
    """Write the kept passes: one JSON object per pass with a name table."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in passes:
            doc = {
                "names": p["names"],
                "fields": ["name_id", "start", "end", "parent"],
                "spans": p["spans"],
                "sizes": {str(k): v for k, v in p["sizes"].items()},
            }
            fh.write(json.dumps(doc, separators=(",", ":")))
            fh.write("\n")


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(snapshots, wall_s):
    """Per-layer self time and the boundary counts of one traced pass.

    ``snapshots`` are the span sets recorded during the pass (one per
    process).  A span's self time is its duration minus the durations of
    its direct children; pass time covered by no span is charged to the
    ``bench`` layer (the benchmark's own code, and for subprocesses the
    interpreter start and imports).
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {}
    inclusive = {}
    root_time = 0.0
    elims_in_hermite = 0
    lps_in_validate = 0
    nonfaces_found = 0
    span_count = 0
    elim = ("exactla.rref", "exactla.bareiss_rank")
    for snap in snapshots:
        names = snap["names"]
        spans = snap["spans"]
        sizes = snap["sizes"]
        span_count += len(spans)
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                root_time += end - start
        for idx, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            self_s[layer_of(name)] += (end - start) - child_time[idx]
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)

        def ancestor(idx, predicate):
            parent = spans[idx][3]
            while parent >= 0:
                if predicate(names[spans[parent][0]]):
                    return parent
                parent = spans[parent][3]
            return -1

        searching_mnf = set()
        for idx, (name_id, _, _, _) in enumerate(spans):
            name = names[name_id]
            if name in elim:
                if ancestor(idx, lambda n: layer_of(n) == "hermite") >= 0:
                    elims_in_hermite += 1
            elif name == "exactla.lp_feasible":
                if ancestor(idx, lambda n: n == "fans.validate_fan") >= 0:
                    lps_in_validate += 1
            elif name == "complexes.SimplicialComplex.is_face":
                searching_mnf.add(ancestor(idx, lambda n: n == "complexes.minimal_non_faces"))
        searching_mnf.discard(-1)
        nonfaces_found += sum(sizes.get(idx, 0) for idx in searching_mnf)
    self_s["bench"] = max(wall_s - root_time, 0.0)
    return {
        "self_s": self_s,
        "calls": calls,
        "inclusive_s": inclusive,
        "elims_in_hermite": elims_in_hermite,
        "lps_in_validate": lps_in_validate,
        "nonfaces_found": nonfaces_found,
        "span_count": span_count,
    }
