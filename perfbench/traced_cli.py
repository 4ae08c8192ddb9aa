"""Run one ``twinbeam`` CLI command with spans around every layer call.

Usage: ``PYTHONPATH=src python perfbench/traced_cli.py SPANS.json ARGS...``
runs ``twinbeam.cli.main(ARGS)`` and writes what it recorded to
``SPANS.json``.

Every public function defined in a layer module (``twinbeam.<layer>``) is
replaced, in every ``twinbeam`` namespace that refers to it, by a wrapper
that records a span ``(name, start, end, parent)``.  Spans and counters stay
in memory and are written once, after the command returns.  Nothing in the
package itself is changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "simulate", "ingest", "io", "detection", "models", "core",
          "reconstruct", "moments", "quasidist", "metrology")

spans: list = []      # [name, start, end, parent index or -1]
stack: list = [-1]
counts: dict = {}


def count(key: str, amount: float) -> None:
    counts[key] = counts.get(key, 0) + amount


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _io_bytes(key: str, path: str, name: str) -> None:
    count(key, _size(path) + (_size(path + ".json") if "clicks" in name else 0))


def _em_counts(result) -> None:
    dist, em = result
    count("reconstruct.iterations", em.iterations)
    count("reconstruct.converged", int(em.converged))
    count("reconstruct.support_cells", dist.table.size)


#: Counters read off a call's arguments and result, by span name.
COUNTERS = {
    "simulate.sample_stream":
        lambda a, r: count("simulate.windows", len(r)),
    "ingest.group_histogram":
        lambda a, r: count("ingest.groups", r.n_groups),
    "detection.detection_matrix":
        lambda a, r: count("detection.matrix_cells", r.entries.size),
    "reconstruct.em_joint": lambda a, r: _em_counts(r),
    "moments.ncd": lambda a, r: count("moments.ncd_calls", 1),
    "quasidist.quasi_distribution":
        lambda a, r: count("quasidist.grid_cells", r.values.size),
}


def traced(name: str, func):
    counter = COUNTERS.get(name)
    if name.startswith("io.write_"):
        def counter(args, result):
            _io_bytes("io.bytes_written", args[1], name)
    elif name.startswith("io.read_"):
        def counter(args, result):
            _io_bytes("io.bytes_read", args[0], name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append([name, time.perf_counter(), None, stack[-1]])
        stack.append(index)
        try:
            result = func(*args, **kwargs)
        finally:
            spans[index][2] = time.perf_counter()
            stack.pop()
        if counter is not None:
            counter(args, result)
        return result
    return wrapper


def instrument() -> None:
    modules = [m for key, m in sys.modules.items()
               if key == "twinbeam" or key.startswith("twinbeam.")]
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"twinbeam.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = traced(f"{layer}.{attr}", obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import twinbeam.cli
    spans.append(["cli.import", start, time.perf_counter(), -1])
    instrument()
    try:
        code = twinbeam.cli.main(argv)
    finally:
        cache = sys.modules["twinbeam.detection"]._cache
        counts["detection.cache_entries"] = len(cache)
        counts["detection.cache_mb"] = sum(
            m.entries.nbytes for m in cache.values()) / 1e6
        with open(out, "w") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
