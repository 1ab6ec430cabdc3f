"""Span tracing of latcoh's layers, installed from outside the library.

Each public function named in layers.json is wrapped, and the wrapper is
bound in every ``latcoh`` module that binds the original: ``cli`` and
``reconstruct`` import names directly (some under aliases), so patching the
defining module alone would miss their calls.  Spans are kept in memory as
(name, start, end, parent, operation) and written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from math import prod
from pathlib import Path

from latcoh.errors import ValidationError

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"


def load_layers() -> list[dict]:
    return json.loads(LAYERS_FILE.read_text(encoding="utf-8"))["layers"]


def metric_names(layers: list[dict]) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in layers.json order."""
    out = []
    for layer in layers:
        for fn in layer["functions"]:
            out += [("%s.%s.calls" % (layer["layer"], fn), "count"), ("%s.%s.self_s" % (layer["layer"], fn), "s")]
        out += [("%s.%s" % (layer["layer"], c), "count") for c in layer["counts"]]
    return out + [("trace_overhead", "ratio")]


class Tracer:
    """Wraps the layers' functions, records spans and boundary counts."""

    def __init__(self, layers: list[dict]) -> None:
        self.layers = layers
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, args, result) -> None:
        """Counts recorded at a layer boundary, from arguments and results."""
        if name == "graded.root_from_weight":
            self.counts["graded.root_vertices"] += len(result.vertices)
        elif name == "complexes.lattice_cohomology":
            # the filtration covers the collared box [0, c+1]^r: 2(c+1)+1 cells per axis
            self.counts["complexes.cubes"] += prod(2 * c + 3 for c in args[0].conductor)
        elif name == "reconstruct.reconstruct_semigroup":
            self.counts["reconstruct.accepted"] += 1

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(sid)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except ValidationError:
                if name == "reconstruct.reconstruct_semigroup":
                    self.counts["reconstruct.rejected"] += 1
                raise
            finally:
                self._exit(sid)
            self._count(name, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if m is not None and (k == "latcoh" or k.startswith("latcoh."))]
        for layer in self.layers:
            home = importlib.import_module(layer["module"])
            for fn in layer["functions"]:
                orig = getattr(home, fn)
                wrapped = self._wrap("%s.%s" % (layer["layer"], fn), orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def per_layer(self, passes: int, scale: float = 1.0) -> dict[str, float]:
        """Calls, self time (times ``scale``) and counts per pass, keyed by per-layer metric name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sid, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
        out = {}
        for layer in self.layers:
            for fn in layer["functions"]:
                name = "%s.%s" % (layer["layer"], fn)
                out[name + ".calls"] = calls[name] / passes
                out[name + ".self_s"] = self_s[name] * scale / passes
            for count in layer["counts"]:
                name = "%s.%s" % (layer["layer"], count)
                out[name] = self.counts[name] / passes
        return out

    def write_spans(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, op]) + "\n")
