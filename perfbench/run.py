"""Benchmark of the twinbeam command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload stream-n10 --seed 1 --seconds 20 --trace 0

Every command of a workload (see ``workloads.py``) runs as a fresh
``python -m twinbeam.cli`` process with ``PYTHONPATH=src``, one after
another, from this single driver process.  The whole sequence repeats until
``--seconds`` have passed (at least twice), and the medians over the
repetitions are reported.  After the last repetition ``check.py`` verifies
every output; a command that exits nonzero or fails its check counts as
failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates an untraced repetition with one in which every
command runs under ``traced_cli.py``, and reports the per-layer metrics
(span self times and counters) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
including the run environment, is written to ``perfbench/results/``.

``--smoke`` shrinks every workload to seconds; ``--self-test`` runs the smoke
workloads with one output corrupted in the second repetition and exits
nonzero unless exactly that output is caught.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time

import workloads
from traced_cli import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")

#: Fresh ``--help`` processes timed before each untraced repetition for
#: ``setup_s``; spreading them over the run makes one slow moment matter less.
SETUP_REPEATS = 2
#: No command starts after this many seconds; a run must end within 180 s.
DEADLINE_S = 150.0
#: A running command is killed once the run is this old.
KILL_S = 165.0


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def run_command(argv: list, cwd: str, log: str, timeout: float) -> dict:
    """Run one process; return its wall time, peak RSS and exit code.

    ``os.wait4`` gives the child's own resource usage.  The driver imports
    no numpy, so the RSS a forked child inherits before ``exec`` stays far
    below what any command reaches.
    """
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "log": log}


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.commands, self.spec = workloads.build(workload, seed, smoke)
        self.start = time.perf_counter()
        os.makedirs(WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
        self.setup: list = []
        self.iterations: list = []

    def remaining(self, limit: float) -> float:
        return limit - (time.perf_counter() - self.start)

    def time_setup(self, repeats: int) -> None:
        cli = [sys.executable, "-m", "twinbeam.cli", "--help"]
        for _ in range(repeats):
            log = os.path.join(self.work, f"help{len(self.setup)}")
            rec = run_command(cli, self.work, log,
                              self.remaining(KILL_S))
            with open(rec["log"] + ".out") as fh:
                rec["ok"] = rec["code"] == 0 and "usage:" in fh.read()
            self.setup.append(rec)

    def iterate(self, traced: bool) -> dict:
        """Run the workload's command sequence once in a fresh directory."""
        d = os.path.join(self.work, f"it{len(self.iterations)}")
        os.makedirs(d)
        records = []
        start = time.perf_counter()
        for idx, argv in enumerate(self.commands):
            log = os.path.join(d, f"cmd{idx}")
            if traced:
                exe = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                       log + ".spans.json"]
            else:
                exe = [sys.executable, "-m", "twinbeam.cli"]
            if self.remaining(DEADLINE_S + 10) < 0:
                records.append({"wall": 0.0, "rss_mb": 0.0, "code": None,
                                "log": log, "skipped": True})
                continue
            records.append(run_command(exe + argv, d, log,
                                       self.remaining(KILL_S)))
        it = {"dir": d, "traced": traced, "records": records,
              "wall": time.perf_counter() - start}
        self.iterations.append(it)
        return it

    def check(self) -> dict:
        job = {"spec": self.spec,
               "iterations": [[it["dir"], self.commands]
                              for it in self.iterations]}
        path = os.path.join(self.work, "job.json")
        with open(path, "w") as fh:
            json.dump(job, fh)
        rec = run_command([sys.executable, os.path.join(HERE, "check.py"), path],
                          self.work, os.path.join(self.work, "check"),
                          max(self.remaining(KILL_S + 10), 10.0))
        with open(rec["log"] + ".out") as fh:
            lines = fh.read().splitlines()
        if rec["code"] != 0 or not lines:
            with open(rec["log"] + ".err") as fh:
                raise RuntimeError("output checker failed:\n" + fh.read()[-2000:])
        return json.loads(lines[-1])

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- per-layer metrics from spans ---------------------------------------------

def self_times(spans: list) -> list:
    """Span duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(it: dict) -> dict:
    """Per-layer values of one traced iteration, summed over its commands."""
    out: dict = {}
    imports = []
    for rec in it["records"]:
        path = rec["log"] + ".spans.json"
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            trace = json.load(fh)
        spans = trace["spans"]
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            if name == "cli.import":
                imports.append(end - start)
                continue
            layer = name.split(".")[0]
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + own
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
        for key, value in trace["counts"].items():
            if key.startswith("detection.cache_"):
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0) + value
    out["cli.import_s"] = median(imports)
    windows = out.pop("simulate.windows", 0)
    sample = out.get("simulate.sample_stream_s", 0.0)
    out["simulate.windows_per_s"] = windows / sample if sample else 0.0
    em, iters = out.get("reconstruct.em_joint_s", 0.0), out.get(
        "reconstruct.iterations", 0)
    out["reconstruct.ms_per_iter"] = 1e3 * em / iters if iters else 0.0
    return out


def command_times(it: dict, commands: list) -> dict:
    """Wall time per subcommand name, summed over the sequence."""
    out: dict = {}
    for argv, rec in zip(commands, it["records"]):
        key = f"cli.{argv[0]}_s"
        out[key] = out.get(key, 0.0) + rec["wall"]
    return out


# -- one benchmark invocation ---------------------------------------------------

def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, corrupt=None) -> dict:
    run = Run(workload, seed, smoke)
    try:
        while True:
            done = len(run.iterations)
            if trace:
                run.iterate(traced=False)
                run.iterate(traced=True)
            else:
                run.time_setup(SETUP_REPEATS)
                run.iterate(traced=False)
            if corrupt is not None and done == 1:
                corrupt(run.iterations[-1]["dir"])
            elapsed = time.perf_counter() - run.start
            last = run.iterations[-1]["wall"] * (2 if trace else 1)
            if len(run.iterations) >= 2 and (
                    elapsed >= seconds or elapsed + last > DEADLINE_S):
                break
        return summarize(run, run.check(), trace)
    finally:
        run.close()


def summarize(run: Run, checked: dict, trace: bool) -> dict:
    ok = {(it, idx): good for it, idx, good, _ in checked["checks"]}
    failures = [f"iteration {it} {run.commands[idx][0]}: {msg}"
                for it, idx, good, msg in checked["checks"] if not good]
    attempted = len(run.setup)
    failed = sum(not rec["ok"] for rec in run.setup)
    failures += [f"setup --help exit {rec['code']}" for rec in run.setup
                 if not rec["ok"]]
    for i, it in enumerate(run.iterations):
        for idx, rec in enumerate(it["records"]):
            attempted += 1
            good = rec["code"] == 0 and ok.get((i, idx), False)
            if rec["code"] != 0:
                failures.append(f"iteration {i} {run.commands[idx][0]}: "
                                f"exit {rec['code']}")
            failed += not good

    plain = [it for it in run.iterations if not it["traced"]]
    traced = [it for it in run.iterations if it["traced"]]
    values = {
        "wall_s": median([it["wall"] for it in plain]),
        "peak_rss_mb": median([max(r["rss_mb"] for r in it["records"])
                               for it in plain]),
    }
    if run.setup:
        values["setup_s"] = median([rec["wall"] for rec in run.setup])
    per_cmd = [command_times(it, run.commands) for it in plain]
    for key in per_cmd[0]:
        values[key] = median([c[key] for c in per_cmd])
    if traced:
        layers = [layer_metrics(it) for it in traced]
        for key in set().union(*layers):
            values[key] = median([lm.get(key, 0.0) for lm in layers])
        values["trace.untraced_wall_s"] = values["wall_s"]
        values["trace.traced_wall_s"] = median([it["wall"] for it in traced])
        values["trace.overhead_s"] = (values["trace.traced_wall_s"]
                                      - values["wall_s"])
    return {"spec": run.spec, "setup": [rec["wall"] for rec in run.setup],
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "failures": failures,
            "values": values, "checks": checked, "iterations": [
                {"traced": it["traced"], "wall": it["wall"],
                 "commands": [[argv[0], rec["wall"], rec["rss_mb"], rec["code"]]
                              for argv, rec in zip(run.commands, it["records"])]}
                for it in run.iterations]}


def select(values: dict, declared: list) -> dict:
    """The declared metrics; a layer the workload never calls reads 0."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif name.split(".")[0] in LAYERS:
            value = 0.0
        else:
            raise KeyError(f"metric {name!r} is not measured")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out



def environment(checked_env: dict) -> dict:
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    return {"git_sha": git.stdout.strip() if git.returncode == 0
            else "unknown (not a git checkout)",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), **checked_env,
            "program": "python -m twinbeam.cli from src/ via PYTHONPATH "
                       "(the package is not installed)"}


# -- self-test ------------------------------------------------------------------

def _corrupt_ncd(d: str) -> None:
    path = os.path.join(d, "ncd.json")
    with open(path) as fh:
        report = json.load(fh)
    report["L11"].update(nonclassical=True, tau=0.3)
    with open(path, "w") as fh:
        json.dump(report, fh)


def _corrupt_jdist(d: str) -> None:
    path = os.path.join(d, "dist.jdist")
    with open(path, "rb") as fh:
        blob = fh.read()
    start = 12 + struct.unpack("<I", blob[8:12])[0]
    table = array.array("d", blob[start:])
    peak = max(range(len(table)), key=table.__getitem__)
    table[peak] = -table[peak]
    with open(path, "wb") as fh:
        fh.write(blob[:start] + table.tobytes())


def _corrupt_sweep(d: str) -> None:
    path = os.path.join(d, "sweep-fano.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


SELF_TEST = {"stream-n10": ("ncd", _corrupt_ncd),
             "recon-n100": ("reconstruct", _corrupt_jdist),
             "sweep-ladder": ("sweep", _corrupt_sweep)}


def self_test() -> int:
    """Corrupt one output of the second repetition; expect only it to fail."""
    status = 0
    for name, (command, corrupt) in SELF_TEST.items():
        result = measure(name, 1, 0, False, smoke=True, corrupt=corrupt)
        want = next(i for i, argv in enumerate(workloads.build(name, 1, True)[0])
                    if argv[0] == command)
        bad = [(it, idx) for it, idx, good, _ in result["checks"]["checks"]
               if not good]
        passed = bad == [(1, want)] and result["failed"] == 1
        status |= not passed
        print(f"self-test {name}: corrupted {command} output -> "
              f"error_rate {result['error_rate']:.3f} "
              f"({'PASS' if passed else 'FAIL'}: {result['failures']})")
    return status


# -- entry point ----------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for trying the harness")
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted outputs raise error_rate")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(SRC, "twinbeam", "cli.py")):
        print(f"no twinbeam package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    declared = load_declared()["per_layer" if args.trace else "end_to_end"]

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     smoke=args.smoke)
    env = environment(result["checks"].pop("env"))
    metrics = select(result["values"], declared)
    result.update(env=env, trace=args.trace, metrics=metrics)
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    print("environment: " + json.dumps(env))
    for key, value in sorted(result["values"].items()):
        print(f"  {key:40s} {value:.6g}")
    print(f"error_rate {result['error_rate']:.4f} "
          f"({result['failed']} of {result['attempted']} commands)")
    for failure in result["failures"]:
        print("FAILED " + failure)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
