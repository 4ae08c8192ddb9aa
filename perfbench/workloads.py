"""Command sequences of the benchmark workloads.

Each workload is a fixed list of ``twinbeam`` CLI invocations whose sizes are
constants of the benchmark; only the simulation seed comes from the caller.
Output paths are relative: every iteration runs its commands inside a fresh
directory.  ``spec`` carries the sizes the output checks need.

This module uses the standard library only, so the driver process stays
small and does not inflate the peak RSS measured for its children.
"""

from __future__ import annotations

#: Every non-classicality identifier the ``ncd`` command knows.
IDENTIFIERS = "E001,E101,E111,E211,M1001,M001001,L11,L21,L31,L41"

#: Nominal detectors of the simulation (``models.NOMINAL_SIGNAL``/``IDLER``).
DETECTORS = ["--eta-s", "0.282", "--eta-i", "0.330",
             "--dark-s", "0.0028", "--dark-i", "0.0038"]

#: Nominal pump drift, ``models.NOMINAL_PUMP.k``.
K_PUMP = "0.000965"

SWEEP_METRICS = ("fano", "tau-e", "postselect")
SMOKE_GROUPS = "1,2,3,5,10"


def _pipeline(seed: int, windows: int, n: int, mode: str, k_pump: str,
              max_iters: int | None, s: str, metrology: bool) -> list:
    sim = ["simulate", "--windows", str(windows), "--seed", str(seed),
           "--out", "stream.clicks"]
    if k_pump:
        sim += ["--k-pump", k_pump]
    rec = ["reconstruct", "--hist", "hist.jhist", *DETECTORS,
           "--out", "dist.jdist"]
    if max_iters is not None:
        rec += ["--max-iters", str(max_iters)]
    cmds = [
        sim,
        ["analyze", "--in", "stream.clicks", "--group-n", str(n),
         "--mode", mode, "--out", "hist.jhist"],
        rec,
        ["ncd", "--dist", "dist.jdist", "--identifiers", IDENTIFIERS,
         "--out", "ncd.json"],
        ["quasidist", "--dist", "dist.jdist", "--s", s, "--out", "grid.igrid"],
    ]
    if metrology:
        cmds.append(["metrology", "--in", "stream.clicks", "--group-n", str(n),
                     "--nm", "500", "--out", "metrology.json"])
    return cmds


def build(name: str, seed: int, smoke: bool = False) -> tuple[list, dict]:
    """Return ``(commands, spec)`` of one workload.

    ``smoke`` shrinks every size so that a whole run takes seconds; it is
    meant for trying the harness, not for measuring.
    """
    if name == "stream-n10":
        spec = {"windows": 400_000 if smoke else 10_000_000, "n": 10,
                "mode": "sliding", "k_pump": float(K_PUMP),
                "max_iters": 200 if smoke else None, "s": "0"}
        cmds = _pipeline(seed, spec["windows"], 10, "sliding", K_PUMP,
                         spec["max_iters"], spec["s"], metrology=True)
    elif name == "recon-n100":
        spec = {"windows": 200_000 if smoke else 2_000_000, "n": 100,
                "mode": "disjoint", "k_pump": 0.0,
                "max_iters": 20 if smoke else 300, "s": "-0.5"}
        cmds = _pipeline(seed, spec["windows"], 100, "disjoint", "",
                         spec["max_iters"], spec["s"], metrology=False)
    elif name == "sweep-ladder":
        # The sweep evaluates closed-form models: it has no random input, so
        # the seed does not enter.
        spec = {"groups": SMOKE_GROUPS if smoke else None}
        cmds = []
        for metric in SWEEP_METRICS + ("eta-eff",):
            cmd = ["sweep", "--metric", metric, "--out", f"sweep-{metric}.csv"]
            if metric == "eta-eff":
                cmd += ["--k-pump", K_PUMP]
            if smoke:
                cmd += ["--groups", SMOKE_GROUPS]
            cmds.append(cmd)
    else:
        raise KeyError(name)
    spec.update(workload=name, seed=seed, smoke=smoke)
    return cmds, spec


NAMES = ("stream-n10", "recon-n100", "sweep-ladder")
