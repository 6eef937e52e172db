"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions by timing wrappers wherever
cclab binds their names (and ``numpy.fft`` transforms in ``numpy.fft``), so
no file of the program changes.  Each wrapped call is a span; spans nest on a
stack, and a layer's self time is its span minus its child spans.  Calls,
self seconds and work counts are summed in memory per layer.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def _points(args, kwargs, result):
    return {"points": int(np.size(args[0] if args else kwargs["a"]))}


def _pairs(args, kwargs, result):
    return {"pairs": len(args[0].terms) * len(args[1].terms)}


def _cubes(args, kwargs, result):
    return {"cubes": len(result)}


# (layer, module, attribute, counter): attribute may be Class.method.
LAYERS = (
    ("field.fft", "cclab.field", "fft", None),
    ("field.ifft", "cclab.field", "ifft", None),
    ("field.apply_symbol", "cclab.field", "apply_symbol", None),
    ("field.mollify", "cclab.field", "mollify", None),
    ("field.trig_product", "cclab.field", "trig_product", _pairs),
    ("field.TrigPoly.add", "cclab.field", "TrigPoly.__add__", None),
    ("field.trig_integral", "cclab.field", "trig_integral", None),
    ("extension.pairing_identity", "cclab.extension", "pairing_identity", None),
    ("extension.slab_derivatives", "cclab.extension", "slab_derivatives",
     None),
    ("extension.poisson_slab", "cclab.extension", "poisson_slab", None),
    ("extension.thmD_ensemble", "cclab.extension", "thmD_ensemble", None),
    ("decompose.helmholtz", "cclab.decompose", "helmholtz", None),
    ("symbol.constant_rank_check", "cclab.symbol", "constant_rank_check",
     None),
    ("norms.local_maximal", "cclab.norms", "local_maximal", None),
    ("norms.young_conjugate", "cclab.norms", "young_conjugate", None),
    ("norms.YoungFunction.call", "cclab.norms", "YoungFunction.__call__",
     None),
    ("norms.luxemburg_norm", "cclab.norms", "luxemburg_norm", None),
    ("norms.delta2_check", "cclab.norms", "delta2_check", None),
    ("counterexamples.table1", "cclab.counterexamples", "table1", None),
    ("counterexamples.run_case", "cclab.counterexamples", "run_case", None),
    ("quasiaffine.quasiaffine_mean_test", "cclab.quasiaffine",
     "quasiaffine_mean_test", None),
    ("cli.run", "cclab.cli", "run", None),
    ("truncate.lipschitz_truncate", "cclab.truncate", "lipschitz_truncate",
     None),
    ("truncate.whitney_cubes", "cclab.truncate", "whitney_cubes", _cubes),
    ("truncate.whitney_extend", "cclab.truncate", "whitney_extend", None),
    ("truncate.chain_mask_inclusion", "cclab.truncate",
     "chain_mask_inclusion", None),
) + tuple(("numpy.fft", "numpy.fft", name, _points) for name in _FFT_NAMES)

# The per-layer metrics a traced run reports, each per round of the workload:
# those BENCHMARK.json names.  Each is <layer>.s, <layer>.calls or
# <layer>.<counter> for a layer of LAYERS.
METRICS = tuple(m["name"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)["per_layer"])


class Tracer:
    def __init__(self):
        self.layers = {}  # layer -> {"calls", "self_s", counters}
        self._stack = []  # child seconds per open span
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, layer, fn, count):
        stats = self.layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                child = stack.pop()
                stats["calls"] += 1
                stats["self_s"] += span - child
                if stack:
                    stack[-1] += span
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    stats[key] = stats.get(key, 0) + value
            return result
        return traced

    def install(self):
        """Wrap every layer in LAYERS; undo with uninstall()."""
        for layer, module, attr, count in LAYERS:
            home = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                self._patch(owner, meth, self._wrap(
                    layer, getattr(owner, meth), count))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(layer, original, count)
            for mod in [home] + [m for name, m in sys.modules.items()
                                 if name.split(".")[0] == "cclab"]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, rounds):
        """Every name in METRICS, per round: `.s` is self seconds, `.calls`
        the number of calls, any other suffix a work counter."""
        out = {}
        for name in METRICS:
            layer, _, key = name.rpartition(".")
            stats = self.layers.get(layer, {})
            if key == "s":
                out[name] = {"value": stats.get("self_s", 0.0) / rounds,
                             "unit": "s"}
            else:
                count = stats.get(key, 0)
                out[name] = {"value": count // rounds if count % rounds == 0
                             else count / rounds, "unit": "count"}
        return out
