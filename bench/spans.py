"""Outside-in tracer for the seven sschain layer modules.

The tracer replaces every public function and every public method of the
layer modules with a wrapper that records one span (function, parent
span, start, end) per call.  Names re-imported into other ``sschain``
modules (``philox_rng`` in ``limit_process``, ``trend_verdict`` in
``kernels``, ...) are replaced too, so a call is traced whichever module
it goes through.  Nothing under ``src/`` is edited: the wrappers are put
in place for one pass and taken out again after it.

"Public" means a name without a leading underscore.  Methods are taken
from every class a layer module defines, private ones included, because
a private base such as ``_BarrierFamily`` supplies methods of public
kernels.  Dunder methods and properties are not wrapped.  A layer's self
time is the time of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("streams", "measures", "kernels", "chain_engine", "exact_dp",
          "limit_process", "stats")


def _sschain_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sschain" or name.startswith("sschain."))]


def layer_functions() -> dict[str, tuple[str, object, str, object]]:
    """Every traced callable as qualname -> (layer, owner, attribute, function)."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"sschain.{layer}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                found[f"{layer}.{name}"] = (layer, mod, name, obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        found[f"{layer}.{obj.__name__}.{attr}"] = (layer, obj, attr, fn)
    return found


class Tracer:
    """Span recorder; ``install`` puts the wrappers in place, ``remove`` undoes it.

    ``hooks`` maps a qualname to ``hook(tracer, span, args, kwargs, result)``,
    called after the wrapped call returns; the tracer is paused while a
    hook runs, so calls a hook makes are not recorded.  ``counters`` is
    where hooks accumulate; the caller replaces it before each pass.
    """

    def __init__(self, functions: dict, hooks: dict):
        self.functions = functions
        self.names = list(self.functions)
        self.layer_of = np.array([LAYERS.index(self.functions[q][0]) for q in self.names])
        self.hooks = hooks
        self.paused = False
        self.counters = None
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.fid = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]

    def fids(self, *qualnames: str) -> list[int]:
        return [self.names.index(q) for q in qualnames if q in self.functions]

    def fids_named(self, attr: str) -> list[int]:
        """Ids of every traced method or function with the given attribute name."""
        return [i for i, q in enumerate(self.names) if q.rsplit(".", 1)[1] == attr]

    def _wrap(self, fid: int, fn, hook):
        fids, parents, t0s, t1s, stack = self.fid, self.parent, self.t0, self.t1, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if hook is not None:
                tracer.paused = True
                try:
                    hook(tracer, idx, args, kwargs, out)
                finally:
                    tracer.paused = False
            return out

        return traced

    def install(self):
        self.reset()
        wrappers = {}
        for fid, q in enumerate(self.names):
            _layer, owner, attr, fn = self.functions[q]
            w = self._wrap(fid, fn, self.hooks.get(q))
            wrappers[id(fn)] = w
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, w)
        # re-imported names: any sschain module attribute bound to a traced function
        for mod in _sschain_modules():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def remove(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- analysis -------------------------------------------------------------
    def arrays(self):
        """(fid, parent, duration, self time) of every recorded span."""
        fid = np.frombuffer(self.fid, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=fid.size)
        return fid, parent, dur, dur - child

    def save(self, path):
        """Write the recorded spans (function names, parent links, times)."""
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(LAYERS),
                            layer_of=self.layer_of,
                            fid=np.frombuffer(self.fid, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            t0=np.frombuffer(self.t0, dtype=float),
                            t1=np.frombuffer(self.t1, dtype=float))


class Probe:
    """Runs ``hook(args, result)`` after every call of one library function.

    Used outside traced passes for checks that need to see values the
    library computes but does not return (the small-jump certificate of
    each subordinator path).
    """

    def __init__(self, functions: dict, qualname: str, hook):
        _layer, owner, attr, fn = functions[qualname]
        self._targets = [(owner, attr)] + [(mod, attr) for mod in _sschain_modules()
                                           if mod is not owner and vars(mod).get(attr) is fn]
        self._fn = fn

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(args, out)
            return out

        self._probed = probed

    def install(self):
        for owner, attr in self._targets:
            setattr(owner, attr, self._probed)

    def remove(self):
        for owner, attr in self._targets:
            setattr(owner, attr, self._fn)
