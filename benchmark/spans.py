"""Spans and counts around the program's public functions, from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
`fairgame` module that binds it (so calls through `from ... import` names
are caught too) and each traced method on its class. A wrapper appends one
span (name, start, end, parent span, operation id, size) to column arrays
kept in memory. Nothing in the program's source changes, and nothing is
wrapped unless a traced run asks for it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _input_mb(args):
    return len(args[0]) / 1e6


def _live_edges(args):
    return len(args[0].live)


def _edges(args):
    return len(args[0].esrc)


def _live_count_edges(args):
    return len(args[0].lsrc)


def _template_edges(args):
    return len(args[1].edges)


OPERATORS = ("pre_exists", "pre_forall", "lpre_exists", "lpre_forall", "cpre", "apre", "npre")

# (module, attribute, span name, size of one call or None); "Class.method"
# wraps a method on its class. Sizes are read after the call returns.
TRACED = [
    ("cli", "main", "cli.main", None),
    ("pgfile", "parse_game", "pgfile.parse", _input_mb),
    ("pgfile", "mutate_liveness", "pgfile.mutate", None),
    ("pgfile", "write_game", "pgfile.write", None),
    ("game", "OddFairGame.__init__", "game.construct", _live_edges),
    ("game", "SubgameView.__init__", "game.view", None),
    ("transformers", "Kernels.__init__", "transformers.kernel_build", None),
    ("transformers", "Kernels.count_in", "transformers.count_in", _edges),
    ("transformers", "Kernels.live_count_in", "transformers.count_in", _live_count_edges),
    *(("transformers", f"Kernels.{op}", "transformers.operator", None) for op in OPERATORS),
    ("fixpoint", "solve_odd_fp", "fixpoint.solve", None),
    ("fixpoint", "solve_even_fp", "fixpoint.solve", None),
    ("fixpoint", "extract_ranks", "fixpoint.extract_ranks", None),
    ("zielonka", "solve_zielonka_fair", "zielonka.solve", None),
    ("zielonka", "solve_zielonka_normal", "zielonka.solve", None),
    ("templates", "close_live_cycles", "templates.close_live_cycles", None),
    ("templates", "build_rank_template", "templates.build_rank_template", None),
    ("templates", "extract_even_strategy", "templates.even_strategy", None),
    ("templates", "format_template", "templates.format", _template_edges),
    ("templates", "format_strategy", "templates.format", None),
    ("certify", "certify_partition", "certify.certify", None),
]


class Tracer:
    """Column store of spans; `op_id` is set by the caller before each operation."""

    def __init__(self):
        self.names: list = []
        self.cols = {
            "name": array("q"), "parent": array("q"), "op": array("q"),
            "start": array("d"), "end": array("d"), "size": array("d"),
        }
        self.stack: list = []
        self.op_id = -1

    def _wrap(self, fn, span, size):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        c = self.cols
        names, parents, ops, starts, ends, sizes = (
            c["name"], c["parent"], c["op"], c["start"], c["end"], c["size"]
        )
        stack, clock, tracer = self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            sizes.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if size is not None:
                    sizes[i] = size(args)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fairgame"]
        for mod_name, attr, span, size in TRACED:
            mod = importlib.import_module(f"fairgame.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), span, size))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, span, size)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def arrays(self) -> dict:
        return {
            k: np.frombuffer(v, dtype=np.float64 if v.typecode == "d" else np.int64)
            for k, v in self.cols.items()
        }

    def layer_totals(self, op_weight) -> dict:
        """Per span name: weighted (calls, self seconds, size).

        Self time is a span's duration minus the durations of its direct
        children. op_weight maps an operation id to the weight of its spans.
        """
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=n)
        ids, inverse = np.unique(a["op"], return_inverse=True)
        w = np.array([op_weight(int(o)) for o in ids], dtype=np.float64)[inverse]
        k = len(self.names)
        calls = np.bincount(a["name"], weights=w, minlength=k)
        self_s = np.bincount(a["name"], weights=(dur - child) * w, minlength=k)
        size = np.bincount(a["name"], weights=a["size"] * w, minlength=k)
        return {nm: (float(calls[i]), float(self_s[i]), float(size[i])) for i, nm in enumerate(self.names)}

    def dump(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())
