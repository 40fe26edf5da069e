"""Span tracing of spinpol from outside the library.

`Tracer.install` replaces every public module-level function of the spinpol
modules by a wrapper under every name callers look it up by: its own module
and each module that imported it directly (for example
`wavepacket.build_frame` and `heisenberg.mapping_matrix`), plus the package
namespace.  `remove` puts the original objects back.  Spans (name, start, end,
parent) go into flat in-memory arrays and are reduced or saved only after the
timed invocations.
"""

import inspect
import os
import time
from array import array

import numpy as np

MODULES = ("algebra", "frames", "rotations", "heisenberg", "wavepacket", "verify", "cli")


def _points(x):
    return np.atleast_2d(np.asarray(x, dtype=float)).shape[0]


# plane-wave terms (points x samples) of a call, from its positional arguments
_TERMS = {
    "wavepacket.spin_field": lambda a: _points(a[2]) * len(a[0]),
    "wavepacket.evaluate_wavefunction": lambda a: len(a[0]),
    "wavepacket.eigen_component": lambda a: len(a[0]),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, m) for m in MODULES]
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.open = []
        self.counts = {"plane_wave_terms": 0, "save_spin_field_bytes": 0}
        self._patched = []
        self._wrappers = {}
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    self._wrappers[obj] = self._wrap(obj, f"{mod.__name__.split('.')[-1]}.{attr}")

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name):
        fixed_id = self._name_id(name)
        per_suite = name == "verify.run_suite"
        terms = _TERMS.get(name)
        saves_field = name == "wavepacket.save_spin_field"
        clock = time.perf_counter
        names, parents, starts, ends, open_spans = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.open
        )

        def wrapper(*args, **kwargs):
            nid = self._name_id(f"{name}.{args[0]}") if per_suite else fixed_id
            idx = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
                if terms is not None:
                    self.counts["plane_wave_terms"] += terms(args)
                elif saves_field:
                    self.counts["save_spin_field_bytes"] += os.path.getsize(args[1])

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for mod in (self.package, *self.modules):
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def remove(self):
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def self_times(self):
        """Per span name: (calls, total self time), self = span minus its children."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        selft = np.bincount(name, weights=dur - child, minlength=width)
        return {n: (int(calls[i]), float(selft[i])) for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
