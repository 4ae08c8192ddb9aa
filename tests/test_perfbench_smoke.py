"""The benchmark's smoke workloads pass the benchmark's own output checks.

The command sequences come from ``perfbench/workloads.py`` and the checks
from ``perfbench/check.py``; both are only imported (without writing
bytecode next to them), and every output goes to a temporary directory.
The benchmark's tracer, ``perfbench/traced_cli.py``, runs the smoke stream
commands in a fresh interpreter and must count what they did; it must also
run the smoke sweep commands, reading the detection cache after each, and
the smoke reconstruct, counting the cells of its two detection matrices.
Every public callable of a layer module must be a plain function, the kind
the tracer wraps.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twinbeam.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = str(PERFBENCH.parent / "src")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("workload", ["stream-n10", "recon-n100",
                                      "sweep-ladder"])
def test_smoke_workload_passes_every_check(workload, tmp_path, monkeypatch,
                                           capsys):
    workloads, check = _load("workloads"), _load("check")
    commands, spec = workloads.build(workload, 1, smoke=True)
    run = tmp_path / "it0"
    run.mkdir()
    monkeypatch.chdir(run)          # the workloads name their files relatively
    for argv in commands:
        assert main(list(argv)) == 0, argv
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"spec": spec,
                               "iterations": [[str(run), commands]]}))
    capsys.readouterr()
    assert check.main(str(job)) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(report["checks"]) == len(commands)
    failed = [c for c in report["checks"] if not c[2]]
    assert not failed, failed


def test_tracer_counts_the_smoke_stream(tmp_path):
    # the tracer reads len() off what sample_stream returns, the paths off
    # the io calls and n_groups off group_histogram's result
    commands, spec = _load("workloads").build("stream-n10", 1, smoke=True)
    counts = {}
    for argv in commands[:2]:                   # simulate, analyze
        assert argv[0] in ("simulate", "analyze")
        spans = tmp_path / f"{argv[0]}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans),
             *argv], cwd=tmp_path, capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=SRC,
                                  PYTHONDONTWRITEBYTECODE="1"))
        assert proc.returncode == 0, proc.stderr
        counts.update(json.loads(spans.read_text())["counts"])
    assert spec["mode"] == "sliding"
    assert counts["simulate.windows"] == spec["windows"]
    assert counts["ingest.groups"] == spec["windows"] - spec["n"] + 1


def test_tracer_runs_the_smoke_sweep(tmp_path):
    # the tracer reads detection._cache after every command; the genuine
    # beam's moments need no detection matrix and leave the cache empty
    commands, _ = _load("workloads").build("sweep-ladder", 1, smoke=True)
    for argv in commands:
        assert argv[0] == "sweep"
        spans = tmp_path / f"{argv[2]}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans),
             *argv], cwd=tmp_path, capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=SRC,
                                  PYTHONDONTWRITEBYTECODE="1"))
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(spans.read_text())["counts"]
        assert counts["detection.cache_entries"] == 0, argv


def test_tracer_counts_the_smoke_reconstruct(tmp_path, monkeypatch):
    # reconstruct is the only command that builds detection matrices: the
    # tracer reads each one's entries and the two are left in the cache
    commands, spec = _load("workloads").build("recon-n100", 1, smoke=True)
    monkeypatch.chdir(tmp_path)
    for argv in commands[:2]:                   # simulate, analyze
        assert main(list(argv)) == 0, argv
    argv = commands[2]
    assert argv[0] == "reconstruct"
    spans = tmp_path / "reconstruct.spans.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans), *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(spans.read_text())["counts"]
    manifest = json.loads((tmp_path / "dist.jdist.manifest.json").read_text())
    n_max = manifest["diagnostics"]["n_max"]
    assert counts["detection.matrix_cells"] == 2 * (spec["n"] + 1) * (n_max + 1)
    assert counts["detection.cache_entries"] == 2


def test_tracer_wraps_every_public_layer_callable():
    # the tracer wraps the plain functions of each layer module; a public
    # callable of another kind (a cache wrapper, a partial) would run
    # unseen.  Classes are records, not spans.  Importing the CLI loaded
    # every layer module
    unseen = [f"{layer}.{attr}" for layer in _load("traced_cli").LAYERS
              for attr, obj in vars(sys.modules[f"twinbeam.{layer}"]).items()
              if not attr.startswith("_") and callable(obj)
              and not inspect.isclass(obj)
              and getattr(obj, "__module__", None) == f"twinbeam.{layer}"
              and not inspect.isfunction(obj)]
    assert unseen == []
