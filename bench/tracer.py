"""In-memory span tracer for the package's layers.

`Tracer.install()` wraps every public function of the layer modules
(`cli`, `estimators`, `spectral`, `mp_law`, `simulate`) and the public
methods of `MPLaw`, and rebinds each wrapper at every name any `usvt`
module holds the original under (for example both `usvt.spectral.as_matrix`
and `usvt.estimators.as_matrix`).  Each call records a span
`[name, start, end, parent index, op id, extra]` in a list that `dump`
writes out when the worker ends.  `extra` holds the counts the per-layer
metrics need (bytes of a file, vectors computed, kept rank, ...); it is
taken after the timed call returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "estimators", "spectral", "mp_law", "simulate")

# Entry points and the per-entry float formatter are not layer stages:
# `main` is the op itself, and wrapping `format_float` would time the
# tracer rather than the writer.
UNTRACED = {"cli.main", "cli.run", "cli.format_float"}

MPLAW_METHODS = ("density", "cdf", "quantile")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _kept(args, kwargs, result):
    return {"kept": result[1].kept_rank}


EXTRAS = {
    "cli.read_matrix": _file_bytes,
    "cli.write_matrix": _file_bytes,
    "cli.write_results": _file_bytes,
    "cli.write_summary": _file_bytes,
    "cli.write_report": _file_bytes,
    "estimators.usvt_denoise": _kept,
    "estimators.usvt_adaptive": _kept,
    "spectral.svd": lambda a, k, r: {"vectors": len(getattr(r, "singular_values", ()))},
    "simulate.haar_orthogonal": lambda a, k, r: {"dim": _arg(a, k, 0, "dim")},
    "simulate.signal_matrix": lambda a, k, r: {"r": _arg(a, k, 0, "r")},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extra = EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if extra is not None:
                record[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions at every binding in `usvt`."""
        import importlib

        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"usvt.{layer}")
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[value] = self.wrap(name, value)
        for module_name, module in list(sys.modules.items()):
            if module_name == "usvt" or module_name.startswith("usvt."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(module, attr, wrapped[value])

        law = sys.modules["usvt.mp_law"].MPLaw
        for attr in MPLAW_METHODS:
            if inspect.isfunction(law.__dict__.get(attr)):
                setattr(law, attr, self.wrap(f"mp_law.{attr}", law.__dict__[attr]))
        median = law.__dict__.get("median")
        if isinstance(median, functools.cached_property):
            traced = functools.cached_property(self.wrap("mp_law.median", median.func))
            traced.__set_name__(law, "median")
            law.median = traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
