"""Output checks of the benchmark workloads.

Run as ``PYTHONPATH=src python perfbench/check.py JOB.json``.  The job file
names the workload spec and the directories of its iterations; every output
file in them is checked and one JSON object is printed as the last line:

    {"checks": [[iteration, command, ok, message], ...],
     "values": {...}, "env": {...}}

The file formats are parsed here independently of ``twinbeam.io``; model
values (click probabilities, detection matrices, photon means) come from the
library's closed-form models.  ``reference/`` holds outputs recorded at the
reference commit 96cc68f, on which this benchmark was defined.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import struct
import sys

import numpy as np
import scipy

from twinbeam import models
from twinbeam.detection import DetectorSpec, detection_matrix

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

#: Realised click rates may sit this many standard deviations off the model.
RATE_SIGMAS = 5.0
#: Allowed drop of the mean data log-likelihood below the recorded reference.
LOGLIK_TOL = 1e-5
#: Allowed relative deviation of the reconstructed mean signal photon number
#: from ``n * params.mean_signal`` (the compound detector model is biased by
#: well under one percent at these sizes).
MEAN_PHOTON_RTOL = 0.03
#: Largest depth a violation of an L (single-arm) identifier may show.  The
#: L values of the simulated field sit barely above zero (L11 is about 0.01
#: at n = 10), inside the reconstruction's statistical resolution, so some
#: seeds show a spurious violation: over 42 runs of both pipelines at the
#: reference commit the deepest was 0.049.  A genuinely non-classical field shows
#: depths like E001's, about 0.42.
L_TAU_MAX = 0.1
#: Allowed deviation of a quasi-distribution grid's normalisation from one.
NORM_TOL = 1e-3
#: Relative tolerance of sweep cells against the recorded reference.
SWEEP_RTOL = 1e-9

MAGIC = {"jhist": b"TWBJHIS1", "jdist": b"TWBJDIS1", "igrid": b"TWBIGRD1"}


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_container(path: str, kind: str) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        blob = fh.read()
    require(blob[:8] == MAGIC[kind], f"{path}: bad magic")
    (hlen,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12:12 + hlen].decode()), blob[12 + hlen:]


def read_f64(path: str, kind: str) -> tuple[dict, np.ndarray]:
    header, body = read_container(path, kind)
    shape = tuple(header["dims"])
    require(len(body) == 8 * int(np.prod(shape)), f"{path}: payload size")
    return header, np.frombuffer(body, dtype="<f8").reshape(shape)


def read_clicks(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    require(blob[:16] == b"twinbeam-clicks1", "clicks: bad magic")
    (count,) = struct.unpack("<Q", blob[16:24])
    require(len(blob) == 24 + count, "clicks: payload size")
    return np.frombuffer(blob, dtype=np.uint8, offset=24)


def read_jhist(path: str) -> tuple[dict, np.ndarray]:
    header, body = read_container(path, "jhist")
    counts = np.array([[int(v) for v in line.split(",")]
                       for line in body.decode().splitlines()], dtype=np.int64)
    return header, counts


def nominal():
    return models.NOMINAL_PARAMS, models.NOMINAL_SIGNAL, models.NOMINAL_IDLER


# -- per-command checks -------------------------------------------------------

def expected_rates(k: float, block_len: int = 10_000) -> list:
    """Mean and per-window variance terms of (signal, idler, coincidence).

    Under pump drift the window probabilities depend on the block's common
    factor; averaging over it by Gauss-Hermite quadrature gives the mean and
    the between-window covariance inside a block.
    """
    params, spec_s, spec_i = nominal()
    if k == 0:
        probs = np.array([models.window_click_probs(params, spec_s, spec_i)])
        weights = np.ones(1)
    else:
        x, w = np.polynomial.hermite_e.hermegauss(201)
        weights = w / w.sum()
        probs = np.array([
            models.window_click_probs(params, spec_s, spec_i, pump_factor=f)
            for f in np.maximum(0.0, 1.0 + np.sqrt(k) * x)])
    mean = weights @ probs
    between = weights @ probs ** 2 - mean ** 2
    return [(float(m), float(m * (1 - m) + (block_len - 1) * b))
            for m, b in zip(mean, between)]


def check_simulate(d: str, spec: dict, state: dict) -> str:
    codes = read_clicks(os.path.join(d, "stream.clicks"))
    require(len(codes) == spec["windows"],
            f"{len(codes)} windows, expected {spec['windows']}")
    s, i = codes & 1, (codes >> 1) & 1
    realised = (s.mean(), i.mean(), (s & i).mean())
    for label, rate, (mean, var) in zip(("signal", "idler", "coincidence"),
                                        realised, expected_rates(spec["k_pump"])):
        z = (rate - mean) / np.sqrt(var / len(codes))
        require(abs(z) < RATE_SIGMAS,
                f"{label} rate {rate:.6g} is {z:+.1f} sigma off {mean:.6g}")
    digest = hashlib.sha256(codes.tobytes()).hexdigest()
    first = state.setdefault("stream_sha256", digest)
    require(digest == first, "same seed gave a different stream")
    return f"rates ok, sha256 {digest[:12]}"


def group_multiplicity(w: int, n: int) -> np.ndarray:
    """Number of sliding groups of ``n`` windows that contain each window."""
    j = np.arange(w, dtype=np.int64)
    return np.minimum(np.minimum(j + 1, w - j), min(n, w - n + 1))


def check_analyze(d: str, spec: dict, state: dict) -> str:
    header, counts = read_jhist(os.path.join(d, "hist.jhist"))
    w, n = spec["windows"], spec["n"]
    expected = w - n + 1 if spec["mode"] == "sliding" else w // n
    require(int(counts.sum()) == expected == header["n_groups"],
            f"{counts.sum()} groups (header {header['n_groups']}), "
            f"expected {expected}")
    codes = read_clicks(os.path.join(d, "stream.clicks"))
    if spec["mode"] == "sliding":
        weight = group_multiplicity(w, n)
    else:
        weight = np.zeros(w, dtype=np.int64)
        weight[:expected * n] = 1
    c = np.arange(counts.shape[0])
    for arm, bits, marg in (("signal", codes & 1, counts.sum(axis=1)),
                            ("idler", (codes >> 1) & 1, counts.sum(axis=0))):
        total, want = int(c @ marg), int(bits.astype(np.int64) @ weight)
        require(total == want, f"{arm} click total {total}, stream gives {want}")
    return f"{expected} groups, marginals match the stream"


def mean_loglik(d: str) -> tuple[float, float]:
    """Mean data log-likelihood of the reconstruction and its mean signal."""
    hheader, counts = read_jhist(os.path.join(d, "hist.jhist"))
    header, table = read_f64(os.path.join(d, "dist.jdist"), "jdist")
    require(header["kind"] == "photon", "not a photon-number table")
    require(table.min() >= 0.0, f"negative entry {table.min():.3e}")
    require(abs(table.sum() - 1.0) < 1e-9, f"table sums to {table.sum():.12f}")
    _, spec_s, spec_i = nominal()
    n = hheader["group_n"]
    t_s = detection_matrix(DetectorSpec(spec_s.eta, spec_s.dark, n),
                           table.shape[0] - 1).entries[:counts.shape[0]]
    t_i = detection_matrix(DetectorSpec(spec_i.eta, spec_i.dark, n),
                           table.shape[1] - 1).entries[:counts.shape[1]]
    data = counts / counts.sum()
    observed = data > 0
    projected = t_s @ table @ t_i.T
    loglik = float(data[observed] @ np.log(projected[observed]))
    mean_s = float(np.arange(table.shape[0]) @ table.sum(axis=1))
    return loglik, mean_s


def check_reconstruct(d: str, spec: dict, state: dict) -> str:
    loglik, mean_s = mean_loglik(d)
    state.setdefault("loglik", []).append(loglik)
    params, _, _ = nominal()
    model = spec["n"] * params.mean_signal
    require(abs(mean_s / model - 1) <= MEAN_PHOTON_RTOL,
            f"mean signal photons {mean_s:.5f}, model {model:.5f}")
    message = f"loglik {loglik:.9f}, mean signal {mean_s:.5f}"
    if not spec["smoke"]:
        with open(os.path.join(REFERENCE, "loglik.json")) as fh:
            refs = json.load(fh)["values"].get(spec["workload"], {})
        ref = refs.get(str(spec["seed"]))
        if ref is not None:
            require(loglik >= ref - LOGLIK_TOL,
                    f"loglik {loglik:.9f} below reference {ref:.9f}")
            message += f", reference {ref:.9f}"
    return message


def check_ncd(d: str, spec: dict, state: dict) -> str:
    with open(os.path.join(d, "ncd.json")) as fh:
        report = json.load(fh)
    e001 = report["E001"]
    require(e001["nonclassical"] and 0 < e001["tau"] < 1,
            f"E001 tau {e001['tau']}, nonclassical {e001['nonclassical']}")
    l_tau = max(report[i]["tau"] for i in ("L11", "L21", "L31", "L41"))
    require(l_tau < L_TAU_MAX, f"L family non-classical with tau {l_tau}")
    return f"tau_E001 {e001['tau']:.6f}, largest L tau {l_tau:.4f}"


def check_quasidist(d: str, spec: dict, state: dict) -> str:
    header, values = read_f64(os.path.join(d, "grid.igrid"), "igrid")
    require(values.shape == (256, 256), f"grid shape {values.shape}")
    norm = float(values.sum() * header["w_max_s"] * header["w_max_i"]
                 / values.size)
    require(abs(norm - 1) <= NORM_TOL, f"normalisation {norm:.6f}")
    return f"normalisation {norm:.6f}"


def check_metrology(d: str, spec: dict, state: dict) -> str:
    with open(os.path.join(d, "metrology.json")) as fh:
        report = json.load(fh)
    s_cs, s_ci = report["S_cs"], report["S_ci"]
    require(0 < s_cs < 1 and 0 < s_ci < 1, f"S_cs {s_cs}, S_ci {s_ci}")
    return f"S_cs {s_cs:.4f}, S_ci {s_ci:.4f}"


def read_csv(path: str) -> tuple[list, dict]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], {row[0]: row for row in rows[1:]}


def check_sweep(d: str, spec: dict, state: dict, metric: str) -> str:
    name = f"sweep-{metric}.csv"
    head, rows = read_csv(os.path.join(d, name))
    ref_head, ref_rows = read_csv(os.path.join(REFERENCE, name))
    require(head == ref_head, f"{name}: columns {head}")
    want = spec["groups"].split(",") if spec["groups"] else list(ref_rows)
    require(list(rows) == want, f"{name}: group sizes {list(rows)}")
    got = np.array([[float(v) for v in rows[n]] for n in want])
    ref = np.array([[float(v) for v in ref_rows[n]] for n in want])
    bad = ~np.isclose(got, ref, rtol=SWEEP_RTOL, atol=0.0)
    if bad.any():
        raise CheckFailed(f"{name}: {int(bad.sum())} cells off the reference, "
                          f"first at n={want[np.argwhere(bad)[0][0]]}")
    return f"{name}: {got.size} cells match"


CHECKS = {"simulate": check_simulate, "analyze": check_analyze,
          "reconstruct": check_reconstruct, "ncd": check_ncd,
          "quasidist": check_quasidist, "metrology": check_metrology}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    spec = job["spec"]
    state: dict = {}
    checks = []
    for it, (d, commands) in enumerate(job["iterations"]):
        for idx, argv in enumerate(commands):
            name = argv[0]
            try:
                if name == "sweep":
                    message = check_sweep(d, spec, state, argv[2])
                else:
                    message = CHECKS[name](d, spec, state)
                checks.append([it, idx, True, message])
            except (CheckFailed, OSError, ValueError, KeyError,
                    IndexError) as exc:
                checks.append([it, idx, False,
                               f"{type(exc).__name__}: {exc}"])
    print(json.dumps({"checks": checks, "values": state,
                      "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
