"""Command-line front end: reproducible pipelines over the library modules.

Every run writes a manifest next to its primary output recording the
resolved parameters, the seed, input digests and package versions, so any
result can be regenerated from scratch.  Numeric output is CSV or JSON only;
plotting is deliberately left to external tools.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric error (an
allocation that runs out of memory among them).
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from . import io as tbio
from . import models
from .core import TwbParams
from .detection import (SUPPORT_TAIL, DetectorSpec, column_sum_error,
                        default_n_max, detection_matrix)
from .errors import DataError, NumericError, UsageError, check_size
from .ingest import DISJOINT, SLIDING, group_histogram
from .metrology import _postselect, effective_efficiency, precision_improvement
from .moments import E_FAMILY, M_FAMILY, fano_nrp_cov, moments, ncd
from .quasidist import grid_normalization, quasi_distribution
from .reconstruct import ml_joint
from .simulate import ClickStream, PumpCorrelation, _schedule, sample_stream

DEFAULT_GROUPS = (1, 2, 3, 5, 10, 20, 30, 50, 70, 100, 200, 300, 500, 700, 1000)

#: Most cells of a dense square table a command allocates: 400 MB of float64.
MAX_TABLE_CELLS = 50_000_000


def _sha256(path: str) -> str:
    # imported here: hashlib maps OpenSSL, which sweep and --help never need
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out: str, args: argparse.Namespace, inputs: list,
                    diagnostics: dict | None = None) -> None:
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items()
                       if k not in ("command", "func", "started")
                       and v is not None},
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs
                   if os.path.exists(p)],
        "versions": {"twinbeam": __version__, "numpy": np.__version__},
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    manifest["run"] = {
        "wall_s": time.perf_counter() - args.started,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tbio.write_json(manifest, out + ".manifest.json")


def _load_params(path: str | None) -> tuple[TwbParams, DetectorSpec, DetectorSpec]:
    if path is None:
        return models.NOMINAL_PARAMS, models.NOMINAL_SIGNAL, models.NOMINAL_IDLER
    keys = ("m_p", "m_s", "m_i", "b_p", "b_s", "b_i")
    raw = tbio._json_object(tbio._read(path), path, keys)
    try:
        return (TwbParams(**{k: raw[k] for k in keys}),
                DetectorSpec(raw.get("eta_s", models.NOMINAL_SIGNAL.eta),
                             raw.get("dark_s", models.NOMINAL_SIGNAL.dark), 1),
                DetectorSpec(raw.get("eta_i", models.NOMINAL_IDLER.eta),
                             raw.get("dark_i", models.NOMINAL_IDLER.dark), 1))
    except TypeError as exc:
        raise DataError(f"{path}: a parameter has the wrong type ({exc})") from None


def _apply_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """Expand ``--config FILE`` (``key = value`` lines) into leading flags.

    Values from the file come first, so explicit flags override them.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        parser.error("--config needs a path")
    rest = argv[:idx] + argv[idx + 2:]
    try:
        lines = tbio._read(path).decode().splitlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 ({exc})") from None
    injected = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        injected += [f"--{key.replace('_', '-')}", value]
    return rest[:1] + injected + rest[1:]


def _check_cells(side: int, what: str, flag: str) -> None:
    # a side <= 0 is left to the library's rule for the size it comes from
    if side > 0 and side ** 2 > MAX_TABLE_CELLS:
        raise UsageError(f"{what} {side}^2 is more than the {MAX_TABLE_CELLS} "
                         f"cells a table may hold; pass a smaller {flag}")


# -- subcommands -------------------------------------------------------------

def _cmd_simulate(args) -> None:
    params, spec_s, spec_i = _load_params(args.params)
    pump = PumpCorrelation(args.k_pump, args.block_len)
    stream = sample_stream(params, spec_s, spec_i, pump, args.windows, args.seed)
    clicks = np.zeros(3, dtype=np.int64)      # signal, idler, coincidence

    def counted():
        for chunk in stream.chunks():
            clicks[:] += [np.count_nonzero(chunk & 1),
                          np.count_nonzero(chunk & 2),
                          np.count_nonzero(chunk == 3)]
            yield chunk

    tbio.write_clicks(ClickStream(len(stream), counted, stream.meta), args.out)
    chunks, workers = _schedule(args.windows)
    # realised click rates per window, next to the model's over the drift;
    # two windows of one block share its pump factor, so the n = 2 moments
    # give each window probability's second moment E[p^2] over the drift
    model = models.compound_click_moments(params, spec_s, spec_i, 1, 1, pump.k)
    pair = models.compound_click_moments(params, spec_s, spec_i, 2, 2, pump.k)
    mean = np.array([model[1, 0], model[0, 1], model[1, 1]])
    second = np.array([pair[2, 0] / 2, pair[0, 2] / 2, pair[2, 2] / 4])
    var = mean * (1 - mean) + (pump.block_len - 1) * (second - mean ** 2)
    rates = clicks / args.windows
    # null where the model leaves no spread: a rate that is surely 0 or 1
    z = [(r - m) / math.sqrt(v / args.windows) if v > 0 else None
         for r, m, v in zip(rates, mean, var)]
    names = ("signal", "idler", "coincidence")
    _write_manifest(args.out, args, [args.params] if args.params else [], {
        "chunks": chunks, "workers": workers,
        "rates": dict(zip(names, rates)),
        "model_rates": dict(zip(names, mean)),
        "rate_z": dict(zip(names, z))})


def _cmd_analyze(args) -> None:
    _check_cells(args.group_n + 1, "histogram", "--group-n")
    stream = tbio.read_clicks(args.infile)
    hist = group_histogram(stream, args.group_n, args.mode)
    tbio.write_jhist(hist, args.out)
    # without dark subtraction, the quantity sweep --metric eta-eff models;
    # null where the other arm never clicked.  It reads order-1 moments only:
    # exact int64 sums of the counts, over the group count
    c, counts, total = np.arange(args.group_n + 1), hist.counts, hist.n_groups
    normal = np.array([[total, c @ counts.sum(axis=0)],
                       [c @ counts.sum(axis=1), c @ counts @ c]]) / total
    efficiency = {}
    for name, arm in (("signal", "s"), ("idler", "i")):
        try:
            efficiency[name] = effective_efficiency(normal, arm)
        except DataError:
            efficiency[name] = None
    _write_manifest(args.out, args, [args.infile],
                    {"effective_efficiency": efficiency})


def _cmd_reconstruct(args) -> None:
    hist = tbio.read_jhist(args.hist)
    n = hist.counts.shape[0] - 1
    spec_s = DetectorSpec(args.eta_s, args.dark_s, n)
    spec_i = DetectorSpec(args.eta_i, args.dark_i, n)
    clicks = np.nonzero(hist.counts)
    c_max = int(max(clicks[0].max(), clicks[1].max()))
    n_max = (default_n_max(c_max, min(spec_s.eta, spec_i.eta), n)
             if args.n_max is None else args.n_max)
    _check_cells(n_max + 1, "joint photon support", "--n-max")
    t_s = detection_matrix(spec_s, n_max).entries
    t_i = detection_matrix(spec_i, n_max).entries
    dist, result = ml_joint(hist.counts, t_s, t_i, args.max_iters)
    tbio.write_jdist(dist, args.out)
    cells = len(clicks[0])
    edge = (n_max + 1) * 9 // 10        # the last 10 % of the support
    edge_mass = float(dist[edge:].sum() + dist[:edge, edge:].sum())
    f = hist.counts[clicks] / hist.n_groups
    _write_manifest(args.out, args, [args.hist], {
        "c_max": c_max, "n_max": n_max, "observed_cells": cells,
        "saturated": c_max >= n,        # the data identify no photon table
        **vars(result),
        # G^2 over the observed cells; an efficiency set too low raises it
        "deviance": 2 * hist.n_groups * (f @ np.log(f) - result.log_likelihood),
        "column_sum_error": {"signal": column_sum_error(t_s),
                             "idler": column_sum_error(t_i)},
        # an identified estimate leaves no more than the support's tail there
        "edge_mass": edge_mass, "edge_mass_limit": SUPPORT_TAIL,
        "edge_mass_ok": edge_mass <= SUPPORT_TAIL})
    print(f"c_max={c_max} n_max={n_max} "
          f"observed_cells={cells} "
          f"converged={result.converged} newton_steps={result.newton_steps} "
          f"lindsay_bound={result.lindsay_bound:.3e} "
          f"log_likelihood={result.log_likelihood:.10f}")


def _cmd_ncd(args) -> None:
    normal = moments(tbio.read_jdist(args.dist), order=5)
    tbio.write_json({ident: ncd(normal, ident)
                     for ident in args.identifiers.split(",")}, args.out)
    _write_manifest(args.out, args, [args.dist], {})


def _cmd_quasidist(args) -> None:
    _check_cells(args.steps, "grid", "--steps")
    dist = tbio.read_jdist(args.dist)
    grid = quasi_distribution(dist, args.s, args.w_max, args.steps)
    tbio.write_igrid(grid, args.out)
    diagnostics = {"normalization": grid_normalization(grid),
                   "normalization_window": grid.mass_window,
                   "min": float(grid.values.min()),
                   "edge_sensitivity": grid.edge_sensitivity,
                   "edge_sensitivity_limit": grid.edge_limit}
    _write_manifest(args.out, args, [args.dist], diagnostics)
    print("normalization={normalization:.6f} min={min:.4e}".format(**diagnostics))


def _cmd_metrology(args) -> None:
    stream = tbio.read_clicks(args.infile)
    tbio.write_json(precision_improvement(stream, args.group_n, args.nm),
                    args.out)
    _write_manifest(args.out, args, [args.infile])


#: Sweep columns of each beam model, per moment metric.
_MOMENT_COLUMNS = {"mean": ("mean_s", "mean_i"), "fano": ("fano_s", "fano_i"),
                   "nrp": ("nrp",), "covariance": ("covariance",)}

#: Sweep metrics with a pump-drift model, the only ones --k-pump may set.
_DRIFT_METRICS = ("mean", "fano", "nrp", "eta-eff")


def _sweep_row(metric: str, n: int, params, spec_s, spec_i, k: float) -> dict:
    row = {"n": n}
    if metric in _MOMENT_COLUMNS or metric in ("tau-e", "tau-m"):
        idents = {"tau-e": E_FAMILY, "tau-m": M_FAMILY}.get(metric)
        for label, model in (("compound", models.compound_click_moments),
                             ("genuine", models.genuine_click_moments)):
            normal = model(params, spec_s, spec_i, n, 5 if idents else 2)
            if idents:
                row.update({f"{label}_tau_{ident}": ncd(normal, ident).tau
                            for ident in idents})
            else:
                stats = fano_nrp_cov(normal)
                row.update({f"{label}_{col}": stats[col]
                            for col in _MOMENT_COLUMNS[metric]})
        if k > 0:
            stats = fano_nrp_cov(
                models.compound_click_moments(params, spec_s, spec_i, n, 2, k))
            row.update({f"drift_{col}": stats[col]
                        for col in ("mean_i", "fano_i", "nrp")})
    elif metric == "eta-eff":
        table = models.compound_click_moments(params, spec_s, spec_i, n, 2, k)
        row["eta_eff_s"] = effective_efficiency(table, "s")
        row["eta_eff_i"] = effective_efficiency(table, "i")
    elif metric == "postselect":
        best = _postselect(
            *models.postselection_stats(params, spec_s, spec_i, n), 1e-3)
        mean, var = models.heralded_photon_stats(params, spec_s,
                                                 best.c_s_opt, n)
        row.update(c_s_opt=best.c_s_opt, fano_click=best.fano_min,
                   mean_click=best.mean_conditional, p_success=best.p_success,
                   mean_photon=mean, fano_photon=var / mean)
    else:                           # precision
        w00, w10, w01, w11 = models.window_click_law(params, spec_s, spec_i)
        row["norm_rel_err_ref_s"] = np.sqrt(w00 + w01)
        row["norm_rel_err_ref_i"] = np.sqrt(w00 + w10)
        row["norm_rel_err_cond_on_s"] = np.sqrt(w10 / (w10 + w11))
        row["norm_rel_err_cond_on_i"] = np.sqrt(w01 / (w01 + w11))
        row["S_cs"] = row["norm_rel_err_cond_on_s"] / row["norm_rel_err_ref_i"]
        row["S_ci"] = row["norm_rel_err_cond_on_i"] / row["norm_rel_err_ref_s"]
    return row


def _cmd_sweep(args) -> None:
    PumpCorrelation(args.k_pump)            # the drift range simulate accepts
    if args.k_pump > 0 and args.metric not in _DRIFT_METRICS:
        raise UsageError(f"metric {args.metric!r} has no pump-drift model; "
                         "drop --k-pump")
    try:
        groups = list(DEFAULT_GROUPS) if args.groups is None \
            else [int(g) for g in args.groups.split(",")]
    except ValueError as exc:
        raise UsageError(f"--groups: {exc}") from None
    for n in groups:                # the precision metric checks no n itself
        check_size(n, "group size")
    params, spec_s, spec_i = _load_params(args.params)
    rows = [_sweep_row(args.metric, n, params, spec_s, spec_i, args.k_pump)
            for n in groups]
    keys = list(rows[0])
    lines = [",".join(keys)]
    lines += [",".join(repr(float(row[k])) if isinstance(row[k], (float, np.floating))
                       else str(row[k]) for k in keys) for row in rows]
    payload = "\n".join(lines) + "\n"
    if args.out:
        tbio._atomic_write(args.out, [payload.encode()])
        _write_manifest(args.out, args, [args.params] if args.params else [])
    else:
        sys.stdout.write(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinbeam",
        description="simulate and analyze compound twin beams")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a click stream")
    sim.add_argument("--windows", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--params", help="JSON file with beam/detector parameters")
    sim.add_argument("--k-pump", type=float, default=0.0)
    sim.add_argument("--block-len", type=int, default=10_000)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="group a stream into a histogram")
    ana.add_argument("--in", dest="infile", required=True)
    ana.add_argument("--group-n", type=int, required=True)
    ana.add_argument("--mode", choices=(SLIDING, DISJOINT), default=SLIDING)
    ana.add_argument("--out", required=True)
    ana.set_defaults(func=_cmd_analyze)

    rec = sub.add_parser("reconstruct", help="photon statistics from a histogram")
    rec.add_argument("--hist", required=True)
    rec.add_argument("--eta-s", type=float, required=True)
    rec.add_argument("--eta-i", type=float, required=True)
    rec.add_argument("--dark-s", type=float, default=0.0)
    rec.add_argument("--dark-i", type=float, default=0.0)
    rec.add_argument("--max-iters", type=int, default=200,
                     help="cap on the interior-point solver's Newton steps "
                          "(default %(default)s)")
    rec.add_argument("--n-max", type=int)
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=_cmd_reconstruct)

    ncd_cmd = sub.add_parser("ncd", help="non-classicality depths")
    ncd_cmd.add_argument("--dist", required=True)
    ncd_cmd.add_argument("--identifiers", default="E001,M1001")
    ncd_cmd.add_argument("--out", required=True)
    ncd_cmd.set_defaults(func=_cmd_ncd)

    qd = sub.add_parser("quasidist", help="intensity quasi-distribution grid")
    qd.add_argument("--dist", required=True)
    qd.add_argument("--s", type=float, required=True)
    qd.add_argument("--w-max", type=float)
    qd.add_argument("--steps", type=int, default=256)
    qd.add_argument("--out", required=True)
    qd.set_defaults(func=_cmd_quasidist)

    met = sub.add_parser("metrology", help="sub-shot-noise precision report")
    met.add_argument("--in", dest="infile", required=True)
    met.add_argument("--group-n", type=int, required=True)
    met.add_argument("--nm", type=int, default=500)
    met.add_argument("--out", required=True)
    met.set_defaults(func=_cmd_metrology)

    sw = sub.add_parser("sweep", help="model curves over group sizes")
    sw.add_argument("--metric", required=True,
                    choices=("mean", "fano", "nrp", "covariance", "eta-eff",
                             "tau-e", "tau-m", "postselect", "precision"))
    sw.add_argument("--groups", help="comma list, default 1..1000 ladder")
    sw.add_argument("--params")
    sw.add_argument("--k-pump", type=float, default=0.0)
    sw.add_argument("--out")
    sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list | None = None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        argv = _apply_config(parser, list(argv))
        args = parser.parse_args(argv)
        args.started = started      # origin of the manifest's run.wall_s
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"numeric error: out of memory ({exc})", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
