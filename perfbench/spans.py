"""Span recorder for the traced benchmark run.

The tracer wraps public functions of the ``spinmod`` layers from the
outside: nothing in ``src/`` is changed.  Each call becomes a span
``(name, start, end, parent span, operation id)`` kept in flat arrays
and written out once, when the run ends.  Per function it reports the
number of calls, the self time (span duration minus the part covered by
its child spans) and the cumulative time (outermost spans of that name
only, so recursion is not counted twice).

A function is patched in every ``spinmod`` module that bound it by name,
so calls between modules stay inside their spans.  The wrappers only read
attributes of their arguments; they never call program functions, which
would fill the program's own caches.
"""

import json
import time
from array import array

# layer (package module) -> wrapped functions, by qualified name
LAYERS = {
    "graphs": ("Graph.build", "is_stable", "Graph.from_json_dict"),
    "cycles": ("enumerate_cyclic", "pbar_decompose"),
    "spin": ("enumerate_spin", "spin_count_check", "stratum_counts",
             "theta_divisors", "refine_nonbasic"),
    "morphisms": ("canonical_form", "canonical_key", "cyclic_canonical_key",
                  "automorphisms", "Aut.act_spin", "contract", "push_spin",
                  "order_test"),
    "posets": ("enumerate_stable_graphs", "three_regular_graphs",
               "stable_graphs_direct", "build_graph_poset",
               "build_cyclic_poset", "build_spin_poset", "Poset.descendants",
               "poset_stats"),
    "tropical": ("build_cone_complex", "FamilyDescriptor.from_json_dict",
                 "diagram_check", "family_generic_fiber"),
    "verify": ("suite_counts", "suite_posets", "suite_functoriality",
               "suite_refine"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in LAYERS.items()
                  for name in names)

def _graph_ident(graph):
    """Structural identity of a graph, read from its attributes."""
    return (tuple(sorted(graph.weight.items())),
            tuple(sorted(graph.endpoint.items())),
            tuple(sorted(graph.involution.items())),
            graph.legs)


def _pbar_input(graph, cyclic_set):
    return _graph_ident(graph), cyclic_set.mask


def _automorphisms_input(graph, restrict=None, spin=None, cap=None):
    spin_data = None if spin is None else (spin.P.mask, spin.signs)
    return _graph_ident(graph), restrict, spin_data, cap


def _certificate(result):
    return result[0]


# functions with a ratio of distinct inputs (or results) to calls:
# name -> (key of the arguments, key of the result); one of them is set
_DISTINCT_KEYS = {
    "cycles.pbar_decompose": (_pbar_input, None),
    "morphisms.canonical_form": (None, _certificate),
    "morphisms.automorphisms": (_automorphisms_input, None),
}
DISTINCT = tuple(_DISTINCT_KEYS)


class Tracer:
    """Records spans from wrappers installed around the layer functions."""

    def __init__(self):
        self.names = list(FUNCTIONS)
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.op_id = 0
        self.graphs_built = 0
        self.distinct = {name: set() for name in DISTINCT}
        self._stack = []
        self._depth = [0] * len(self.names)

    def _wrap(self, nid, fn):
        name_id, parent, op, outer = (self.name_id, self.parent, self.op,
                                      self.outer)
        start, end = self.start, self.end
        stack, depth = self._stack, self._depth
        clock = time.monotonic  # the clock speed.SpeedSampler reads
        arg_key, result_key = _DISTINCT_KEYS.get(self.names[nid],
                                                 (None, None))
        seen = self.distinct.get(self.names[nid])
        tracer = self

        def wrapper(*args, **kwargs):
            if arg_key is not None:
                seen.add(arg_key(*args, **kwargs))
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            d = depth[nid]
            outer.append(d == 0)
            depth[nid] = d + 1
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[nid] = d
            if result_key is not None:
                seen.add(result_key(result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self, modules):
        """Patch every traced function in ``modules`` (name -> module)."""
        for nid, name in enumerate(self.names):
            mod_name, _, qual = name.partition(".")
            owner = modules[mod_name]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(nid,
                                                              raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(nid, raw))
                continue
            original = getattr(owner, qual)
            wrapped = self._wrap(nid, original)
            for module in modules.values():
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapped)
        graph_cls = modules["graphs"].Graph
        init = graph_cls.__init__

        def counting_init(graph, *args, **kwargs):
            self.graphs_built += 1
            init(graph, *args, **kwargs)

        graph_cls.__init__ = counting_init

    def metrics(self, duration):
        """Per-function calls, self and cumulative seconds, plus counts,
        by metric name.  ``duration(start, end)`` converts a span's clock
        readings to seconds."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        cum_s = [0.0] * n_names
        durations = [duration(t0, t1) for t0, t1 in zip(self.start,
                                                         self.end)]
        covered = [0.0] * len(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += durations[i]
        for i, dur in enumerate(durations):
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += dur - covered[i]
            if self.outer[i]:
                cum_s[nid] += dur
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.cum_s"] = cum_s[nid]
        out["graphs.Graph.calls"] = self.graphs_built
        for name in DISTINCT:
            n = calls[self.names.index(name)]
            out[f"{name}.distinct_ratio"] = (len(self.distinct[name]) / n
                                             if n else 0.0)
        return out

    def write_spans(self, path):
        """One JSON header line, then the span arrays as raw bytes in the
        order the header lists them.  ``start`` and ``end`` are
        ``time.monotonic`` readings; ``parent`` is a span index, -1 for
        none."""
        fields = ("name_id", "parent", "op", "outer", "start", "end")
        header = {"names": self.names, "count": len(self.name_id),
                  "fields": [[f, getattr(self, f).typecode] for f in fields]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


def load_spans(path):
    """Read a span file back as ``(names, {field: array})``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = {}
        for name, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            fields[name] = arr
    return header["names"], fields
