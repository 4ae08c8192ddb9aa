"""The benchmark's smoke workloads pass the benchmark's own output checks.

The command sequences come from ``perfbench/workloads.py`` and the checks
from ``perfbench/check.py``; both are only imported (without writing
bytecode next to them), and every output goes to a temporary directory.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from twinbeam.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
