"""Span tracing of cfperiod's layers from outside the package.

``Tracer.install()`` wraps the public functions of each layer module (plus
``LinRec.term``) in span recorders and rebinds every imported copy of each
name, e.g. ``cfperiod.classifier.factor_k`` as well as
``cfperiod.polyalg.factor_k``, so calls between modules are seen too.
``QuadElem`` arithmetic is counted, not spanned: a span per operation would
swamp the run.

Spans are held in memory as (span id, parent span id, job id, name, start,
end) and written out by ``write_spans`` when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

from workloads import d_bits

LAYERS = ("cli", "classifier", "recurrence", "polyalg", "contfrac", "places", "qfield")
# qfield's helpers that get spans; its arithmetic is counted instead
QFIELD_SPANS = ("to_surd", "floor_exact", "split_square", "to_mpf")
QUAD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")
D_BUCKETS = (("D_le_64", 64), ("D_65_126", 126), ("D_gt_126", math.inf))


def surd_d_bits(x) -> int:
    """Bit length of D in the walk's (P + sqrt(D))/Q state; 0 for rationals."""
    if hasattr(x, "D"):
        return x.D.bit_length()
    if getattr(x, "b", 0):
        return d_bits((x.a, x.b), x.d)
    return 0


class Tracer:
    def __init__(self):
        self.job = None
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.ops = 0
        self.bm_terms = 0
        self.walks: list[tuple] = []   # (job id, D bits, steps, seconds)
        self._stack: list[list] = []
        self._next_id = 0
        self._installed: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            result = err = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                err = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_s[name] += dur - frame[1]
                calls[name] += 1
                spans.append((frame[0], parent, self.job, name, t0, t1))
                if observe is not None:
                    observe(args, result, err, dur)

        traced.__wrapped__ = fn
        return traced

    def _observe_walk(self, args, result, err, dur):
        bits = surd_d_bits(args[0])
        if not bits:
            return  # rational expansion: no quadratic walk
        if err is not None:
            steps = getattr(err, "steps", None)
            if steps is None:
                return
        else:
            steps = len(result.preperiod) + len(result.period)
        self.walks.append((self.job, bits, steps, dur))

    def _observe_bm(self, args, result, err, dur):
        self.bm_terms += len(args[0])

    def _rebind(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname == "cfperiod" or modname.startswith("cfperiod."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, orig))

    def install(self):
        mods = {layer: importlib.import_module(f"cfperiod.{layer}") for layer in LAYERS}
        observers = {"contfrac.expand": self._observe_walk,
                     "recurrence.min_charpoly": self._observe_bm}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or attr.startswith("_")
                        or fn.__module__ != mod.__name__):
                    continue
                if layer == "qfield" and attr not in QFIELD_SPANS:
                    continue
                name = f"{layer}.{attr}"
                self._rebind(fn, self._span(name, fn, observers.get(name)))
        linrec = mods["recurrence"].LinRec
        orig = linrec.term
        linrec.term = self._span("recurrence.term", orig)
        self._installed.append((linrec, "term", orig))
        quad = mods["qfield"].QuadElem
        for attr in QUAD_OPS:
            orig = quad.__dict__.get(attr)
            if orig is not None:
                setattr(quad, attr, self._counted(orig))
                self._installed.append((quad, attr, orig))

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.ops += 1
            return fn(*args, **kwargs)
        return counted

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": t0, "end": t1}) + "\n")

    def metrics(self, periods_rows: int, periods_closed: int, periods_jobs: set) -> dict:
        """Per-layer metrics, name -> (value, unit)."""
        c, s = self.calls, self.self_s
        steps = sum(w[2] for w in self.walks)
        out = {
            "contfrac.steps": (steps, "count"),
            "contfrac.walks": (len(self.walks), "count"),
            "contfrac.self_s": (self.layer_self_s("contfrac"), "s"),
            "contfrac.closed_frac": (periods_closed / periods_rows if periods_rows else 0.0,
                                     "ratio"),
        }
        lo = 0
        for label, hi in D_BUCKETS:
            sel = [w for w in self.walks if lo < w[1] <= hi]
            secs = sum(w[3] for w in sel)
            out[f"contfrac.steps_per_s.{label}"] = (
                sum(w[2] for w in sel) / secs if secs else 0.0, "1/s")
            lo = hi
        row_walks = sum(1 for w in self.walks if w[0] in periods_jobs)
        out["contfrac.walks_per_row"] = (row_walks / periods_rows if periods_rows else 0.0,
                                         "ratio")
        out.update({
            "polyalg.nondegeneracy.calls": (c["polyalg.nondegeneracy"], "count"),
            "polyalg.nondegeneracy.self_s": (s["polyalg.nondegeneracy"], "s"),
            "polyalg.factor_q.calls": (c["polyalg.factor_q"], "count"),
            "polyalg.factor_k.calls": (c["polyalg.factor_k"], "count"),
            "polyalg.factor.self_s": (s["polyalg.factor_q"] + s["polyalg.factor_k"], "s"),
            "polyalg.circle_profile.calls": (c["polyalg.circle_profile"], "count"),
            "polyalg.circle_profile.self_s": (s["polyalg.circle_profile"], "s"),
            "polyalg.self_s": (self.layer_self_s("polyalg"), "s"),
            "recurrence.nondegenerate_rec.calls": (c["recurrence.nondegenerate_rec"], "count"),
            "recurrence.min_charpoly.calls": (c["recurrence.min_charpoly"], "count"),
            "recurrence.min_charpoly.self_s": (s["recurrence.min_charpoly"], "s"),
            "recurrence.bm_terms": (self.bm_terms, "count"),
            "recurrence.split_degenerate.self_s": (s["recurrence.split_degenerate"], "s"),
            "recurrence.term.self_s": (s["recurrence.term"], "s"),
            "recurrence.self_s": (self.layer_self_s("recurrence"), "s"),
            "classifier.classify.calls": (c["classifier.classify"], "count"),
            "classifier.self_s": (self.layer_self_s("classifier"), "s"),
            "places.val.calls": (c["places.val"], "count"),
            "places.growth_check.self_s": (s["places.growth_check"], "s"),
            "places.self_s": (self.layer_self_s("places"), "s"),
            "qfield.ops": (self.ops, "count"),
            "qfield.self_s": (self.layer_self_s("qfield"), "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
        })
        return out
