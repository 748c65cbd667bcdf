"""Span tracer that wraps randsym's layer functions from outside.

Each wrapped call records a span: id, name, start, end, self time (its
duration minus the time its child spans cover), parent span and op id.
Spans stay in memory and are written out when the run ends.  A wrapper
replaces *every* attribute of a randsym module bound to the wrapped
function object, so a function imported under several names (say
``exactlinalg.exact_rank``, bound in ``ensembles`` as ``_rank``) is traced
whichever name the caller uses.  Spans made in forked workers stay in the
workers and are lost: a parallel run is traced in the parent only.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Layer:
    module: str          # defining module
    attr: str            # function, or Class.method
    name: str            # metric prefix
    observe: Optional[Callable] = None   # observe(counters, result, args)
    split: Optional[Callable] = None     # split(args) -> metric prefix suffix


def _corank(counters, result, args):
    counters["ensembles.spectral_summary.exact_corank"] += result.corank is not None


def _checks(counters, result, args):
    counters["structure.decoupling_scan.checks"] += len(result[1])


def _record_bytes(counters, result, args):
    base = args[1]
    counters["cli.record_bytes"] += sum(os.path.getsize(base + ext) for ext in (".csv", ".json"))


LAYERS: Tuple[Layer, ...] = (
    Layer("randsym.laws", "parse_law", "laws.parse_law"),
    Layer("randsym.laws", "auto_certificate", "laws.auto_certificate"),
    Layer("randsym.laws", "verify_spacing", "laws.verify_spacing"),
    Layer("randsym.laws", "AtomicLaw.sample_indices", "laws.AtomicLaw.sample_indices"),
    Layer("randsym.streams", "substream", "streams.substream"),
    Layer("randsym.ensembles", "sample_symmetric", "ensembles.sample_symmetric"),
    Layer("numpy.linalg", "eigvalsh", "ensembles.eigvalsh"),
    Layer("randsym.ensembles", "spectral_summary", "ensembles.spectral_summary",
          observe=_corank),
    Layer("randsym.ensembles", "grow_and_track", "ensembles.grow_and_track"),
    Layer("randsym.ensembles", "subspace_membership_mc", "ensembles.subspace_membership_mc"),
    Layer("randsym.exactlinalg", "exact_rank", "exactlinalg.exact_rank"),
    Layer("randsym.exactlinalg", "bareiss_det", "exactlinalg.bareiss_det"),
    Layer("randsym.exactlinalg", "rowspace_membership", "exactlinalg.rowspace_membership"),
    Layer("randsym.exactlinalg", "row_echelon_int", "exactlinalg.row_echelon_int"),
    Layer("randsym.exactlinalg", "adjugate", "exactlinalg.adjugate"),
    Layer("randsym.smallball", "linear_small_ball_exact", "smallball.linear_small_ball_exact",
          split=lambda args: f"-{args[0].n}"),
    Layer("randsym.smallball", "quadratic_small_ball_exact",
          "smallball.quadratic_small_ball_exact"),
    Layer("randsym.smallball", "bilinear_small_ball", "smallball.bilinear_small_ball"),
    Layer("randsym.gap", "rank_reduce", "gap.rank_reduce"),
    Layer("randsym.gap", "beta_close", "gap.beta_close"),
    Layer("randsym.gap", "is_proper", "gap.is_proper"),
    Layer("randsym.gap", "spans", "gap.spans"),
    Layer("randsym.structure", "decoupling_scan", "structure.decoupling_scan",
          observe=_checks),
    Layer("randsym.structure", "verify_decoupling", "structure.verify_decoupling"),
    Layer("randsym.detconc", "tail_trial", "detconc.tail_trial"),
    Layer("randsym.detconc", "detconc_trial", "detconc.detconc_trial"),
    Layer("randsym.detconc", "truncated_log_det", "detconc.truncated_log_det"),
    Layer("randsym.cli", "run", "cli.run"),
    Layer("randsym.cli", "resolve", "cli.resolve"),
    Layer("randsym.cli", "ResultRecord.write", "cli.ResultRecord.write",
          observe=_record_bytes),
)

# the linear small ball is reported per op size: the int64 lattice path
# (48 coefficients) and the Python-dict path (120)
LINEAR_SPLITS = ("-48", "-120")


def layer_names() -> List[str]:
    out = []
    for layer in LAYERS:
        if layer.split is not None:
            out += [layer.name + s for s in LINEAR_SPLITS]
        else:
            out.append(layer.name)
    return out


class Tracer:
    def __init__(self):
        # finished spans: (id, name, start, end, self_s, parent id, op id, error)
        self.spans: List[tuple] = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: List[list] = []   # [span id, seconds covered by children]
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        error = False
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            error = True
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += t1 - t0
            self.spans.append((sid, name, t0, t1, t1 - t0 - frame[1], parent,
                               self.op_id, error))

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer.name + layer.split(args) if layer.split else layer.name
            result = self.call(name, fn, *args, **kwargs)
            if layer.observe is not None:
                layer.observe(self.counters, result, args)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every layer function under all the names it is bound to."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "randsym" or n.startswith("randsym."))]
        for layer in LAYERS:
            home = importlib.import_module(layer.module)
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(home, cls_name)
                self._replace(cls, meth, self._wrap(layer, cls.__dict__[meth]))
                continue
            fn = getattr(home, layer.attr)
            wrapper = self._wrap(layer, fn)
            for mod in [home] + modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._replace(mod, attr, wrapper)

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def layer_totals(self) -> Dict[str, Tuple[int, float, int]]:
        """name -> (calls, self seconds, errors) over all finished spans."""
        out: Dict[str, list] = {}
        for _, name, _, _, self_s, _, _, error in self.spans:
            agg = out.setdefault(name, [0, 0.0, 0])
            agg[0] += 1
            agg[1] += self_s
            agg[2] += error
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_us,end_us,self_us,parent,op,error\n")
            spans = sorted(self.spans)   # by id, which is start order
            t0 = spans[0][2] if spans else 0.0
            for sid, name, s, e, self_s, parent, op, error in spans:
                fh.write(f"{sid},{name},{(s - t0) * 1e6:.1f},{(e - t0) * 1e6:.1f},"
                         f"{self_s * 1e6:.1f},{parent},{op},{int(error)}\n")
