import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (GroupingPolicy, IntensityGrid, JointDist,
                      JointHistogram, PumpCorrelation, group_histogram,
                      joint_twb, quasi_distribution, sample_stream)
from oracles import (codes_of, compound_click_moments_by_table,
                     compound_photon_dist, stream_of, window_click_dist)
from twinbeam import core, detection, models, simulate
from twinbeam import io as tbio
from twinbeam.cli import main
from twinbeam.errors import DataError
from twinbeam.metrology import effective_efficiency
from twinbeam.reconstruct import CERTIFICATE
from twinbeam.simulate import CHUNK

SRC = str(Path(__file__).resolve().parents[1] / "src")
#: Sweep CSVs recorded by the benchmark at an earlier commit (read only).
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def run_python(*argv):
    """Run a fresh interpreter with only the package source on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestFormats:
    def test_clicks_round_trip(self, tmp_path, nominal):
        params, spec_s, spec_i = nominal
        stream = sample_stream(params, spec_s, spec_i,
                               PumpCorrelation(1e-3, 100), 5_000, seed=5)
        path = str(tmp_path / "s.clicks")
        tbio.write_clicks(stream, path)
        back = tbio.read_clicks(path)
        assert np.array_equal(codes_of(back), codes_of(stream))
        assert back.meta["seed"] == 5
        assert back.meta["params"] == params
        assert back.meta["pump"] == PumpCorrelation(1e-3, 100)

    def test_clicks_magic_is_16_bytes(self, tmp_path):
        assert len(tbio.CLICKS_MAGIC) == 16
        with open(tmp_path / "bad", "wb") as fh:
            fh.write(b"\x00" * 40)
        with pytest.raises(DataError):
            tbio.read_clicks(str(tmp_path / "bad"))

    def test_clicks_keep_no_stream_sized_buffer(self, tmp_path):
        # writing sends each chunk from its own buffer; reading holds one
        # chunk at a time
        codes = np.random.default_rng(8).integers(0, 4, 8 * CHUNK, np.uint8)
        stream, path = stream_of(codes, {"seed": 8}), str(tmp_path / "s.clicks")
        tracemalloc.start()
        try:
            tbio.write_clicks(stream, path)
            written = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            for _ in tbio.read_clicks(path).chunks():
                pass
            read = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.array_equal(codes_of(tbio.read_clicks(path)), codes)
        assert written <= 0.25 * CHUNK
        assert read <= 2.25 * CHUNK

    def test_clicks_bytes_and_trailing_bytes(self, tmp_path):
        codes = np.array([0, 1, 2, 3, 1], np.uint8)
        path = str(tmp_path / "s.clicks")
        tbio.write_clicks(stream_of(codes), path)
        with open(path, "rb") as fh:
            assert fh.read() == (tbio.CLICKS_MAGIC + (5).to_bytes(8, "little")
                                 + codes.tobytes())
        with open(path, "ab") as fh:
            fh.write(b"\x07\x07")
        assert np.array_equal(codes_of(tbio.read_clicks(path)), codes)
        with open(path, "r+b") as fh:
            fh.truncate(24 + 4)
        with pytest.raises(DataError, match="truncated"):
            tbio.read_clicks(path)

    def test_jdist_round_trip(self, tmp_path, nominal):
        d = window_click_dist(*nominal)
        path = str(tmp_path / "d.jdist")
        tbio.write_jdist(d, path)
        back = tbio.read_jdist(path)
        assert np.array_equal(back.table, d.table)
        # the header tag that perfbench/check.py requires of every jdist
        with open(path, "rb") as fh:
            assert b'"kind": "photon"' in fh.read()
        assert back.tail_mass == d.tail_mass

    def test_twb_jdist_round_trip(self, tmp_path, nominal):
        # joint_twb's tail is an np.float64, whose comparison with the
        # ceiling is an np.bool_ that the JSON header could not hold
        d = joint_twb(nominal[0].scaled(10))
        assert isinstance(d.tail_mass, np.float64)
        path = str(tmp_path / "twb.jdist")
        tbio.write_jdist(d, path)
        back = tbio.read_jdist(path)
        assert np.array_equal(back.table, d.table)
        assert back.tail_mass == d.tail_mass
        assert back.truncation_dirty is d.truncation_dirty is False

    def test_jhist_round_trip(self, tmp_path, nominal):
        params, spec_s, spec_i = nominal
        stream = sample_stream(params, spec_s, spec_i,
                               PumpCorrelation(0.0, 100), 20_000, seed=6)
        h = group_histogram(stream, GroupingPolicy(5, "disjoint"))
        path = str(tmp_path / "h.jhist")
        tbio.write_jhist(h, path)
        back = tbio.read_jhist(path)
        assert np.array_equal(back.counts, h.counts)
        assert back.n_groups == h.n_groups
        assert back.policy == h.policy

    @settings(max_examples=400, deadline=None, database=None)
    @given(fmt=st.sampled_from(["jdist", "jhist", "igrid", "clicks"]),
           data=st.data())
    def test_damaged_containers_raise_data_errors(self, valid_containers,
                                                  tmp_path_factory, fmt, data):
        # random byte flips or a cut anywhere: the reader (and a pass over
        # a stream's chunks) returns or raises DataError, never another
        # exception
        blob = bytearray(valid_containers[fmt])
        if data.draw(st.booleans(), label="cut"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="at")]
        else:
            flips = st.tuples(st.integers(0, len(blob) - 1),
                              st.integers(1, 255))
            for pos, mask in data.draw(st.lists(flips, min_size=1,
                                                max_size=4), label="flips"):
                blob[pos] ^= mask
        path = tmp_path_factory.getbasetemp() / "damaged"
        path.write_bytes(blob)
        # a clicks file keeps its sidecar intact
        (tmp_path_factory.getbasetemp() / "damaged.json").write_bytes(
            valid_containers["clicks.json"])
        reader = {"jdist": tbio.read_jdist, "jhist": tbio.read_jhist,
                  "igrid": tbio.read_igrid, "clicks": tbio.read_clicks}[fmt]
        try:
            read = reader(str(path))
            if fmt == "clicks":
                codes_of(read)
        except DataError:
            pass

    def test_igrid_payload_other_than_f64_is_data_error(self, tmp_path,
                                                        valid_containers):
        # no command reads an igrid, so this is the library's reader alone
        header, body = tbio._unpack("igrid-v1", valid_containers["igrid"])
        path = tmp_path / "csv.igrid"
        path.write_bytes(tbio._pack("igrid-v1", {**header, "payload": "csv"},
                                    body))
        with pytest.raises(DataError, match="bad payload: 'csv'"):
            tbio.read_igrid(str(path))

    def test_igrid_round_trip(self, tmp_path):
        g = quasi_distribution(np.array([[1.0]]), 0.5, steps=32)
        path = str(tmp_path / "g.igrid")
        tbio.write_igrid(g, path)
        back = tbio.read_igrid(path)
        assert np.array_equal(back.values, g.values)
        assert (back.w_max_s, back.w_max_i, back.s) == (g.w_max_s, g.w_max_i, g.s)


@pytest.fixture(scope="module")
def valid_containers(tmp_path_factory, nominal):
    """Bytes of a small valid jdist, jhist, igrid and clicks file, and the
    clicks file's sidecar."""
    tmp = tmp_path_factory.mktemp("containers")
    hist = JointHistogram(np.array([[4, 1], [2, 3]]), 10,
                          GroupingPolicy(1, "disjoint"))
    tbio.write_jhist(hist, str(tmp / "jhist"))
    tbio.write_jdist(window_click_dist(*nominal), str(tmp / "jdist"))
    tbio.write_igrid(IntensityGrid(np.arange(6.0).reshape(2, 3), 2.0, 3.0,
                                   -0.5), str(tmp / "igrid"))
    tbio.write_clicks(sample_stream(*nominal, PumpCorrelation(0.0, 100), 40,
                                    seed=2), str(tmp / "clicks"))
    blobs = {fmt: (tmp / fmt).read_bytes()
             for fmt in ("jdist", "jhist", "igrid", "clicks")}
    blobs["clicks.json"] = (tmp / "clicks.json").read_bytes()
    return blobs


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_simulate_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.clicks"), str(tmp_path / "b.clicks")
        for out in (a, b):
            assert self.run("simulate", "--windows", "50000", "--seed", "7",
                            "--out", out) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_full_pipeline(self, tmp_path, capsys):
        clicks = str(tmp_path / "run.clicks")
        hist = str(tmp_path / "h.jhist")
        dist = str(tmp_path / "p.jdist")
        report = str(tmp_path / "ncd.json")
        grid = str(tmp_path / "g.igrid")
        met = str(tmp_path / "met.json")
        assert self.run("simulate", "--windows", "400000", "--seed", "3",
                        "--out", clicks) == 0
        assert self.run("analyze", "--in", clicks, "--group-n", "5",
                        "--mode", "disjoint", "--out", hist) == 0
        assert self.run("reconstruct", "--hist", hist, "--eta-s", "0.282",
                        "--eta-i", "0.330", "--dark-s", "2.8e-3",
                        "--dark-i", "3.8e-3", "--max-iters", "500",
                        "--out", dist) == 0
        assert self.run("ncd", "--dist", dist, "--identifiers",
                        "E001,M1001", "--out", report) == 0
        capsys.readouterr()
        assert self.run("quasidist", "--dist", dist, "--s", "0.0",
                        "--out", grid) == 0
        printed = capsys.readouterr().out
        assert self.run("metrology", "--in", clicks, "--group-n", "20",
                        "--nm", "100", "--out", met) == 0
        ncd_report = json.loads(open(report).read())
        assert ncd_report["E001"]["nonclassical"]
        for ident in ("E001", "M1001"):
            outcome = ncd_report[ident]
            assert isinstance(outcome["multiple_roots"], bool)
            # the round-off floor that a violation has to clear
            assert 0 <= outcome["noise_floor"] < math.inf
            assert outcome["nonclassical"] == (
                outcome["value_at_normal_ordering"] < -outcome["noise_floor"])
        met_report = json.loads(open(met).read())
        assert met_report["S_cs"] < 1.0
        # every output carries a manifest sufficient to re-run it, and an
        # account of the run
        for path in (clicks, hist, dist, report, grid, met):
            manifest = json.loads(open(path + ".manifest.json").read())
            assert manifest["command"]
            assert "parameters" in manifest and "versions" in manifest
            assert manifest["run"]["wall_s"] > 0
            assert manifest["run"]["peak_rss_mb"] > 0
        # the numeric health checks leave their margins in the manifests
        errors = json.loads(open(dist + ".manifest.json").read())[
            "diagnostics"]["column_sum_error"]
        assert set(errors) == {"signal", "idler"}
        assert all(0 <= e <= detection.COLUMN_SUM_TOL for e in errors.values())
        grid_diag = json.loads(open(grid + ".manifest.json").read())[
            "diagnostics"]
        assert set(grid_diag) == {"normalization", "min", "edge_sensitivity",
                                  "tail_mass", "truncation_dirty"}
        assert 0 <= grid_diag["edge_sensitivity"] < math.inf
        estimate = tbio.read_jdist(dist)
        for path in (report, grid):
            diag = json.loads(open(path + ".manifest.json").read())[
                "diagnostics"]
            assert diag["tail_mass"] == estimate.tail_mass
            assert diag["truncation_dirty"] is estimate.truncation_dirty
        assert f"normalization={grid_diag['normalization']:.6f}" in printed.split()
        assert f"min={grid_diag['min']:.4e}" in printed.split()

    def test_ncd_and_quasidist_record_the_input_truncation(self, tmp_path,
                                                           nominal):
        # a photon table whose truncation dropped 1e-4 of the mass
        joint = core.joint_twb(nominal[0])
        tail = 1e-4
        dist = str(tmp_path / "p.jdist")
        table = joint.table / joint.table.sum() * (1 - tail)
        tbio.write_jdist(JointDist(table, tail), dist)
        for argv in (["ncd", "--identifiers", "E001"],
                     ["quasidist", "--s", "0"]):
            out = str(tmp_path / argv[0])
            assert self.run(*argv, "--dist", dist, "--out", out) == 0
            diag = json.loads(open(out + ".manifest.json").read())[
                "diagnostics"]
            assert diag["tail_mass"] == tail
            assert diag["truncation_dirty"] is True

    def test_quasidist_of_an_all_tail_table_is_a_zero_grid(self, tmp_path):
        # a table whose truncation dropped all of its mass has none for the
        # grid to lose, even where the damping underflows on every cell
        dist, grid = str(tmp_path / "p.jdist"), str(tmp_path / "g.igrid")
        tbio.write_jdist(JointDist(np.zeros((2, 2)), 1.0), dist)
        assert self.run("quasidist", "--dist", dist, "--s",
                        "0.9999999999999999", "--steps", "16",
                        "--out", grid) == 0
        diag = json.loads(open(grid + ".manifest.json").read())["diagnostics"]
        assert diag["normalization"] == 0.0 and diag["tail_mass"] == 1.0

    def test_grid_beyond_double_range_exits_4(self, tmp_path, nominal):
        dist, grid = str(tmp_path / "p.jdist"), str(tmp_path / "g.igrid")
        tbio.write_jdist(compound_photon_dist(nominal[0], 2180), dist)
        # a fresh process, where a numpy warning would reach stderr
        proc = run_python("-m", "twinbeam.cli", "quasidist", "--dist", dist,
                          "--s", "0.5", "--steps", "8", "--out", grid)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [
            "numeric error: the intensity series leaves double range; "
            "shrink the photon support or lower s"]
        assert not os.path.exists(grid)

    def test_support_edge_sensitivity_exits_4(self, tmp_path, capsys):
        dist, grid = str(tmp_path / "p.jdist"), str(tmp_path / "g.igrid")
        bright = core.TwbParams(10, 10, 10, 0.5, 0.01, 0.01)
        tbio.write_jdist(core.joint_twb(bright), dist)
        assert self.run("quasidist", "--dist", dist, "--s", "0.9",
                        "--out", grid) == 4
        assert "support-edge sensitivity" in capsys.readouterr().err
        assert not os.path.exists(grid)

    def reconstruct_thousand(self, tmp_path, capsys, nominal, *extra):
        """Reconstruct 300 disjoint groups of n = 1000 windows."""
        stream = sample_stream(*nominal,
                               PumpCorrelation(0.0, 100), 300_000, seed=4)
        hist = group_histogram(stream, GroupingPolicy(1000, "disjoint"))
        path, dist = str(tmp_path / "h.jhist"), str(tmp_path / "p.jdist")
        tbio.write_jhist(hist, path)
        capsys.readouterr()
        assert self.run("reconstruct", "--hist", path, "--eta-s", "0.282",
                        "--eta-i", "0.330", "--dark-s", "2.8e-3",
                        "--dark-i", "3.8e-3", "--max-iters", "30",
                        "--out", dist, *extra) == 0
        manifest = json.loads(open(dist + ".manifest.json").read())
        return (tbio.read_jhist(path), tbio.read_jdist(dist),
                manifest["diagnostics"], capsys.readouterr().out)

    def test_reconstruct_sizes_support_to_the_clicks(self, tmp_path, capsys,
                                                     nominal):
        hist, dist, diag, out = self.reconstruct_thousand(tmp_path, capsys,
                                                          nominal)
        rows, cols = np.nonzero(hist.counts)
        c_max = int(max(rows.max(), cols.max()))
        n_max = detection.default_n_max(c_max, 0.282, 1000)
        # the solve is certified: no table is more likely by the tolerance
        bound = diag.pop("lindsay_bound")
        assert 0 <= bound < CERTIFICATE
        steps = diag.pop("newton_steps")
        assert 1 <= steps <= 30
        assert max(diag.pop("column_sum_error").values()) <= \
            detection.COLUMN_SUM_TOL
        # the mass on the last tenth of either axis, the corner once
        edge = np.arange(n_max + 1) >= (n_max + 1) * 9 // 10
        edge_mass = diag.pop("edge_mass")
        assert edge_mass == pytest.approx(
            dist.table[edge[:, None] | edge[None, :]].sum(), rel=1e-12, abs=0)
        assert 0 <= edge_mass <= 1
        # the mean data log-likelihood of the written estimate, recomputed
        # from the two files as the benchmark's check does
        loglik = diag.pop("log_likelihood")
        t_s, t_i = (detection.detection_matrix(
            detection.DetectorSpec(eta, dark, hist.policy.n),
            n_max).entries[:len(hist.counts)]
            for eta, dark in ((0.282, 2.8e-3), (0.330, 3.8e-3)))
        data = hist.counts / hist.counts.sum()
        observed = data > 0
        projected = t_s @ dist.table @ t_i.T
        assert loglik == pytest.approx(
            float(data[observed] @ np.log(projected[observed])),
            rel=0, abs=1e-12)
        cells = int(np.count_nonzero(hist.counts))
        assert diag == {"c_max": c_max, "n_max": n_max,
                        "observed_cells": cells, "converged": True}
        assert dist.table.shape == (n_max + 1, n_max + 1)
        assert n_max < int(np.ceil(3 * (1000 + 5) / 0.282))
        assert out.split() == [
            f"c_max={c_max}", f"n_max={n_max}", f"observed_cells={cells}",
            "converged=True", f"newton_steps={steps}",
            f"lindsay_bound={bound:.3e}", f"log_likelihood={loglik:.10f}"]

    def test_step_cap_leaves_a_valid_uncertified_estimate(self, tmp_path,
                                                          capsys, nominal):
        _, dist, diag, out = self.reconstruct_thousand(tmp_path, capsys,
                                                       nominal, "--max-iters",
                                                       "2")
        assert diag["converged"] is False and diag["newton_steps"] == 2
        assert diag["lindsay_bound"] >= CERTIFICATE
        assert "converged=False" in out.split()
        # read back through the checked reader: a distribution
        assert dist.table.min() >= 0
        assert dist.table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_explicit_n_max_wins(self, tmp_path, capsys, nominal):
        _, dist, diag, _ = self.reconstruct_thousand(tmp_path, capsys, nominal,
                                                     "--n-max", "90")
        assert diag["n_max"] == 90
        assert dist.table.shape == (91, 91)

    def test_sweep_csv(self, tmp_path, capsys):
        assert self.run("sweep", "--metric", "nrp", "--groups", "1,10") == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,")
        assert len(lines) == 3
        value = float(lines[1].split(",")[1])
        assert value == pytest.approx(0.703, abs=0.01)

    def test_sweep_to_file_with_manifest(self, tmp_path):
        out = str(tmp_path / "taus.csv")
        assert self.run("sweep", "--metric", "tau-m", "--groups", "5,20",
                        "--out", out) == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 3
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["parameters"]["metric"] == "tau-m"

    @pytest.mark.parametrize("metric", ["mean", "fano", "covariance",
                                        "eta-eff", "tau-e", "postselect",
                                        "precision"])
    def test_sweep_covers_every_metric(self, metric, capsys):
        assert self.run("sweep", "--metric", metric, "--groups", "2,10") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("metric, options", [
        ("fano", []), ("tau-e", []), ("postselect", []),
        ("eta-eff", ["--k-pump", "0.000965"])],
        ids=["fano", "tau-e", "postselect", "eta-eff"])
    def test_sweep_matches_recorded_reference(self, metric, options, capsys):
        # the whole default ladder, as the benchmark's sweep workload runs it
        assert self.run("sweep", "--metric", metric, *options) == 0
        got = capsys.readouterr().out.strip().splitlines()
        ref = (REFERENCE / f"sweep-{metric}.csv").read_text().splitlines()
        assert got[0] == ref[0]
        ref_rows = {row.split(",")[0]: row for row in ref[1:]}
        for row in got[1:]:
            cells = np.array(row.split(","), dtype=float)
            want = np.array(ref_rows[row.split(",")[0]].split(","), dtype=float)
            np.testing.assert_allclose(cells, want, rtol=1e-9, atol=0.0)

    def sweep_cells(self, capsys, *argv):
        assert self.run("sweep", *argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return lines[0], np.array([row.split(",") for row in lines[1:]],
                                  dtype=float)

    @pytest.mark.parametrize("metric, k_pump", [
        ("mean", "0"), ("nrp", "0"), ("covariance", "0"), ("tau-m", "0"),
        ("mean", "0.000965"), ("fano", "0.000965"), ("nrp", "0.000965")])
    def test_sweep_matches_table_route(self, metric, k_pump, capsys,
                                       monkeypatch):
        argv = ("--metric", metric, "--groups", "1,2,3,5,10",
                "--k-pump", k_pump)
        header, closed = self.sweep_cells(capsys, *argv)
        monkeypatch.setattr(models, "compound_click_moments",
                            compound_click_moments_by_table)
        table_header, table = self.sweep_cells(capsys, *argv)
        assert header == table_header
        np.testing.assert_allclose(closed, table, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("metric, k_pump", [
        ("mean", "0.000965"), ("fano", "0.000965"), ("nrp", "0.000965"),
        ("covariance", "0"), ("eta-eff", "0.000965"), ("tau-e", "0"),
        ("tau-m", "0"), ("postselect", "0"), ("precision", "0")])
    def test_sweep_moments_need_no_compound_table(self, metric, k_pump,
                                                  capsys):
        # the package has no compound click table left to build
        for module in (detection, models):
            assert not hasattr(module, "compound_photocounts")
            assert not hasattr(module, "compound_click_dist")
        # nor a photon table to convolve for the heralded idler field
        assert not hasattr(detection, "conditional_photon_dist")
        assert not hasattr(core, "convolve_power_1d")
        # nor a click table of the genuine beam
        assert not hasattr(models, "genuine_click_dist")
        assert not hasattr(detection, "forward_photocounts")
        _, cells = self.sweep_cells(capsys, "--metric", metric,
                                    "--groups", "2,10", "--k-pump", k_pump)
        assert cells.shape[0] == 2

    def test_sweep_drift_columns(self, capsys):
        assert self.run("sweep", "--metric", "fano", "--groups", "5,50,500",
                        "--k-pump", "1e-3") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert "drift_fano_i" in header
        col = header.index("drift_fano_i")
        drift = [float(row.split(",")[col]) for row in lines[1:]]
        # correlated drift inflates the grouped Fano with the group size
        assert drift[0] < drift[1] < drift[2]

    def test_sweep_rejects_drift_for_unmodelled_metrics(self):
        assert self.run("sweep", "--metric", "tau-e", "--groups", "2",
                        "--k-pump", "1e-3") == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("metric = nrp\ngroups = 1,10,100  # ladder\n")
        assert self.run("sweep", "--config", str(cfg), "--groups", "1") == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2

    def test_usage_error_exit_code(self, tmp_path):
        dist = str(tmp_path / "p.jdist")
        tbio.write_jdist(JointDist(np.array([[1.0]]), 0.0), dist)
        assert self.run("ncd", "--dist", dist, "--identifiers", "bogus",
                        "--out", str(tmp_path / "r.json")) == 2

    def test_data_error_exit_code(self, tmp_path):
        missing = str(tmp_path / "missing.clicks")
        assert self.run("analyze", "--in", missing, "--group-n", "3",
                        "--out", str(tmp_path / "h.jhist")) == 3

    @pytest.mark.parametrize("k", [0.0, 0.000965])
    def test_simulate_rate_z_scores(self, tmp_path, nominal, k):
        # the per-window variance m (1 - m) + (block_len - 1) between, for
        # the default blocks of 10 000 windows, with the drift's between-
        # window term taken by perfbench/check.py's quadrature of the window
        # probabilities over the pump factor, not by the n = 2 moments
        x, w = np.polynomial.hermite_e.hermegauss(201)
        w = w / w.sum()
        probs = np.array(models.window_click_probs(
            *nominal, np.maximum(0.0, 1.0 + np.sqrt(k) * x)))
        mean = probs @ w
        var = mean * (1 - mean) + 9_999 * (probs ** 2 @ w - mean ** 2)
        out = str(tmp_path / "s.clicks")
        for seed in (1, 2, 3):
            assert self.run("simulate", "--windows", "300000", "--seed",
                            str(seed), "--k-pump", str(k), "--out", out) == 0
            diag = json.loads(open(out + ".manifest.json").read())[
                "diagnostics"]
            names = ("signal", "idler", "coincidence")
            rates = np.array([diag["rates"][name] for name in names])
            z = np.array([diag["rate_z"][name] for name in names])
            assert z == pytest.approx((rates - mean) / np.sqrt(var / 300_000),
                                      rel=1e-6, abs=1e-9)
            assert np.all(np.abs(z) < 5)

    def test_simulate_rate_z_is_null_without_spread(self, tmp_path):
        params = tmp_path / "vacuum.json"
        params.write_text(json.dumps({
            "m_p": 1, "m_s": 1, "m_i": 1, "b_p": 0.0, "b_s": 0.0, "b_i": 0.0,
            "dark_s": 0.0, "dark_i": 0.0}))
        out = str(tmp_path / "s.clicks")
        assert self.run("simulate", "--windows", "1000", "--seed", "1",
                        "--params", str(params), "--out", out) == 0
        diag = json.loads(open(out + ".manifest.json").read())["diagnostics"]
        assert diag["rate_z"] == {"signal": None, "idler": None,
                                  "coincidence": None}

    def test_analyze_records_effective_efficiencies(self, tmp_path, stream_1m,
                                                    nominal):
        # 100 000 disjoint groups: the estimates scatter by 0.0023 (signal)
        # and 0.0024 (idler) over seeds 1-10, so 0.012 is about five of that
        clicks, hist = str(tmp_path / "s.clicks"), str(tmp_path / "h.jhist")
        tbio.write_clicks(stream_1m, clicks)
        assert self.run("analyze", "--in", clicks, "--group-n", "10",
                        "--mode", "disjoint", "--out", hist) == 0
        diag = json.loads(open(hist + ".manifest.json").read())["diagnostics"]
        table = models.compound_click_moments(*nominal, 10, 2)
        for name, arm in (("signal", "s"), ("idler", "i")):
            assert diag["effective_efficiency"][name] == pytest.approx(
                effective_efficiency(table, arm), abs=0.012)

    def test_analyze_efficiency_is_null_where_an_arm_never_clicks(self,
                                                                   tmp_path):
        clicks, hist = str(tmp_path / "s.clicks"), str(tmp_path / "h.jhist")
        tbio.write_clicks(stream_of(np.tile([0, 1], 500)), clicks)
        assert self.run("analyze", "--in", clicks, "--group-n", "10",
                        "--out", hist) == 0
        diag = json.loads(open(hist + ".manifest.json").read())["diagnostics"]
        # the signal's effective efficiency divides by the idler's mean
        assert diag["effective_efficiency"] == {"signal": None, "idler": 0.0}

    def test_manifest_digest_covers_every_read_block(self, tmp_path):
        # 3 MB of codes: two full 1 MiB digest blocks and a partial one
        clicks, hist = str(tmp_path / "s.clicks"), str(tmp_path / "h.jhist")
        codes = np.random.default_rng(3).integers(0, 4, 3_000_000)
        tbio.write_clicks(stream_of(codes), clicks)
        assert self.run("analyze", "--in", clicks, "--group-n", "10",
                        "--mode", "disjoint", "--out", hist) == 0
        data = open(clicks, "rb").read()
        assert len(data) > 2 << 20
        manifest = json.loads(open(hist + ".manifest.json").read())
        assert manifest["inputs"] == [
            {"path": clicks, "sha256": hashlib.sha256(data).hexdigest()}]

    def test_manifest_regenerates_output(self, tmp_path):
        first = str(tmp_path / "a.clicks")
        assert self.run("simulate", "--windows", "30000", "--seed", "11",
                        "--k-pump", "1e-3", "--block-len", "500",
                        "--out", first) == 0
        manifest = json.loads(open(first + ".manifest.json").read())
        params = manifest["parameters"]
        redone = str(tmp_path / "b.clicks")
        argv = ["simulate"]
        for key in ("windows", "seed", "k_pump", "block_len"):
            argv += [f"--{key.replace('_', '-')}", str(params[key])]
        argv += ["--out", redone]
        assert self.run(*argv) == 0
        assert open(first, "rb").read() == open(redone, "rb").read()


def test_cli_import_loads_no_scipy():
    # nor mpmath, which only the test oracles use, nor the thread pool that
    # only simulate starts, nor hashlib and the OpenSSL it maps, which only
    # the commands that digest an input need
    probe = ("import sys, twinbeam.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'mpmath', 'concurrent', "
             "'hashlib', '_hashlib')))")
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["sweep", "--metric", "fano", "--groups", "1,10", "--out", "{tmp}/f.csv"],
    ["--help"]], ids=["sweep", "help"])
def test_commands_without_inputs_leave_openssl_unloaded(tmp_path, argv):
    # a sweep digests no input, so its process never maps libcrypto
    probe = ("import sys\n"
             "from twinbeam.cli import main\n"
             "try:\n"
             "    code = main(sys.argv[1:])\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             "print(code, '_hashlib' in sys.modules)")
    proc = run_python("-c", probe,
                      *(arg.format(tmp=tmp_path) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


#: Public functions and members that no other code of the package names,
#: and why each stays.
LIBRARY_ENTRY_POINTS = {
    "read_igrid": "the reader of the igrid-v1 format that quasidist writes",
    "optimal_postselection": "post-selection on a measured histogram "
                             "(Criterion 7)",
    "mean_signal": "the expected rates of perfbench/check.py",
    "to_s_ordered": "the library's ordering change, used by the acceptance "
                    "and quasidist tests and the README",
}


def _identifiers(tree: ast.AST) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_package_names_each_public_function():
    # every public top-level function and public method or property of the
    # package is named by its other code (``__init__.py`` aside): functions
    # that only tests call belong in tests/oracles.py
    trees = [ast.parse(path.read_text())
             for path in Path(SRC, "twinbeam").glob("*.py")
             if path.name != "__init__.py"]
    named = sum(map(_identifiers, trees), Counter())
    unnamed = sorted(
        func.name for tree in trees for node in tree.body
        for func in (node.body if isinstance(node, ast.ClassDef) else [node])
        if isinstance(func, ast.FunctionDef) and not func.name.startswith("_")
        and named[func.name] == _identifiers(func)[func.name])
    assert unnamed == sorted(LIBRARY_ENTRY_POINTS)


def test_package_raises_or_catches_each_error():
    # every exception class of errors.py is raised or caught by the
    # package's other modules: one that only the tests raise belongs in
    # tests/oracles.py
    errors = Path(SRC, "twinbeam", "errors.py")
    classes = [node.name for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)]
    used = Counter()
    for path in Path(SRC, "twinbeam").glob("*.py"):
        if path != errors:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    used += _identifiers(node.exc)
                elif isinstance(node, ast.ExceptHandler) and node.type:
                    used += _identifiers(node.type)
    assert [name for name in classes if not used[name]] == []


#: Defaulted parameters that no call of the package sets, and why each stays.
UNSET_DEFAULTS = {
    "main.argv": "the console script reads sys.argv; tests pass an argv",
    "effective_efficiency.dark_mean": "dark-count subtraction on a "
                                      "measured histogram (Criterion 5a)",
    "optimal_postselection.min_events": "the library entry point's "
                                        "eligibility floor (Criterion 7)",
}


def _sets(call: ast.Call, position: int, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name`` at ``position``."""
    return (len(call.args) > position
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg in (name, None) for kw in call.keywords))


def test_every_default_is_set_by_a_package_call():
    # a default that every call of the package leaves alone is a setting
    # with one value in use: a constant, or a value to take from the input
    trees = [ast.parse(path.read_text())
             for path in Path(SRC, "twinbeam").glob("*.py")]
    methods = {id(func) for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for func in node.body}
    calls = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = []
    for func in (node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)):
        params = func.args.posonlyargs + func.args.args
        # a method's first parameter is its instance, bound before the call
        shift = 1 if id(func) in methods else 0
        defaulted = [(i - shift, p.arg) for i, p in enumerate(params)
                     if i >= len(params) - len(func.args.defaults)]
        defaulted += [(math.inf, p.arg) for p, d in
                      zip(func.args.kwonlyargs, func.args.kw_defaults) if d]
        for position, name in defaulted:
            if not any(_sets(call, position, name) for call in calls
                       if func.name in (getattr(call.func, "id", None),
                                        getattr(call.func, "attr", None))):
                unset.append(f"{func.name}.{name}")
    assert sorted(unset) == sorted(UNSET_DEFAULTS)


def test_manifest_times_its_own_process(tmp_path, nominal):
    out = str(tmp_path / "s.clicks")
    start = time.perf_counter()
    proc = run_python("-m", "twinbeam.cli", "simulate", "--windows",
                      str(CHUNK + 1), "--seed", "1", "--out", out)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads(open(out + ".manifest.json").read())
    assert 0 < manifest["run"]["wall_s"] <= elapsed
    # far above the few MB of an empty process, far below a leak
    assert 10 < manifest["run"]["peak_rss_mb"] < 500
    # the realised rates are counted off the written file, the model's are
    # those of the nominal beam without drift
    codes = np.frombuffer(open(out, "rb").read()[24:], np.uint8)
    model = models.compound_click_moments(*nominal, 1, 1)
    # without drift the windows are independent Bernoulli trials
    z = {name: (rate - m) / np.sqrt(m * (1 - m) / len(codes))
         for name, rate, m in (
             ("signal", np.mean(codes & 1), model[1, 0]),
             ("idler", np.mean(codes >> 1), model[0, 1]),
             ("coincidence", np.mean(codes == 3), model[1, 1]))}
    assert manifest["diagnostics"].pop("rate_z") == pytest.approx(z, rel=1e-9)
    assert manifest["diagnostics"] == {
        "chunks": 2, "workers": min(2, len(os.sched_getaffinity(0))),
        "rates": {"signal": np.mean(codes & 1), "idler": np.mean(codes >> 1),
                  "coincidence": np.mean(codes == 3)},
        "model_rates": {"signal": model[1, 0], "idler": model[0, 1],
                        "coincidence": model[1, 1]}}


def test_stream_commands_hold_no_stream_sized_buffer(tmp_path, monkeypatch):
    # one worker, so that the peak does not hang on how the draws of several
    # threads overlap; a first small run loads what the commands cache
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)

    def peaks(windows: int) -> list:
        out, found = str(tmp_path / f"{windows}.clicks"), []
        for argv in (["simulate", "--windows", str(windows), "--seed", "3",
                      "--k-pump", "0.000965", "--out", out],
                     ["analyze", "--in", out, "--group-n", "10",
                      "--out", out + ".jhist"],
                     ["metrology", "--in", out, "--group-n", "10",
                      "--out", out + ".json"]):
            tracemalloc.start()
            try:
                assert main(argv) == 0, argv
                found.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return found

    peaks(CHUNK + 5)
    short, long = peaks(2 * CHUNK + 5), peaks(14 * CHUNK + 5)
    # twelve chunks more grow each peak by less than one chunk of codes
    assert all(b - a < CHUNK for a, b in zip(short, long)), (short, long)


def test_bad_code_in_the_last_chunk_exits_3_without_output(tmp_path, capsys):
    codes = np.zeros(2 * CHUNK + 9, np.uint8)
    codes[-1] = 4
    clicks = str(tmp_path / "late.clicks")
    tbio.write_clicks(stream_of(codes), clicks)
    for argv, out in ((["analyze", "--in", clicks, "--group-n", "5"],
                       tmp_path / "h.jhist"),
                      (["metrology", "--in", clicks, "--group-n", "5",
                        "--nm", "10"], tmp_path / "m.json")):
        assert main(argv + ["--out", str(out)]) == 3
        assert "window code 4 above 3" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()


#: Malformed command lines: argv (``{tmp}`` and the file names are filled
#: from the ``bad_input_files`` fixture), exit code, and a fragment of the
#: error message.
BAD_INPUTS = {
    "reconstruct-eta-zero": (
        ["reconstruct", "--hist", "{hist}", "--eta-s", "0", "--eta-i", "0.33",
         "--out", "{tmp}/p.jdist"], 2, "eta"),
    "sweep-groups-not-integer": (
        ["sweep", "--metric", "nrp", "--groups", "a"], 2, "--groups"),
    "params-missing-key": (
        ["sweep", "--metric", "nrp", "--groups", "1", "--params", "{params}"],
        3, "b_i"),
    "params-not-json": (
        ["sweep", "--metric", "nrp", "--groups", "1", "--params",
         "{params_cut}"], 3, "not valid JSON"),
    "params-not-object": (
        ["sweep", "--metric", "nrp", "--groups", "1", "--params",
         "{params_list}"], 3, "JSON object"),
    "params-wrong-type": (
        ["sweep", "--metric", "nrp", "--groups", "1", "--params",
         "{params_text}"], 3, "wrong type"),
    "jdist-cut-in-header": (
        ["ncd", "--dist", "{jdist_head}", "--out", "{tmp}/r.json"],
        3, "header"),
    "jdist-cut-in-payload": (
        ["ncd", "--dist", "{jdist_body}", "--out", "{tmp}/r.json"],
        3, "payload"),
    "jhist-truncated": (
        ["reconstruct", "--hist", "{hist_cut}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "CSV payload"),
    "jdist-header-without-dims": (
        ["ncd", "--dist", "{jdist_no_dims}", "--out", "{tmp}/r.json"],
        3, "dims"),
    "clicks-sidecar-not-json": (
        ["analyze", "--in", "{clicks_cut}", "--group-n", "5",
         "--out", "{tmp}/h2.jhist"], 3, "not valid JSON"),
    "clicks-sidecar-not-object": (
        ["analyze", "--in", "{clicks_list}", "--group-n", "5",
         "--out", "{tmp}/h2.jhist"], 3, "JSON object"),
    "clicks-sidecar-bad-params": (
        ["analyze", "--in", "{clicks_params}", "--group-n", "5",
         "--out", "{tmp}/h2.jhist"], 3, "'params'"),
    "sweep-groups-zero": (
        ["sweep", "--metric", "eta-eff", "--groups", "0"], 2, "--groups"),
    "sweep-groups-negative": (
        ["sweep", "--metric", "nrp", "--groups", "-3"], 2, "--groups"),
    "sweep-k-pump-negative": (
        ["sweep", "--metric", "fano", "--groups", "2", "--k-pump", "-1"],
        2, "k must be"),
    "metrology-nm-zero": (
        ["metrology", "--in", "{clicks}", "--group-n", "5", "--nm", "0",
         "--out", "{tmp}/m.json"], 2, "--nm"),
    "metrology-nm-negative": (
        ["metrology", "--in", "{clicks}", "--group-n", "5", "--nm", "-5",
         "--out", "{tmp}/m.json"], 2, "--nm"),
    "metrology-reference-without-spread": (
        ["metrology", "--in", "{clicks_both}", "--group-n", "2", "--nm", "10",
         "--out", "{tmp}/m.json"], 3, "reference_i has zero spread"),
    "quasidist-grid-too-large": (
        ["quasidist", "--dist", "{jdist}", "--s", "0", "--steps", "100000",
         "--out", "{tmp}/g.igrid"], 2, "pass a smaller --steps"),
    "analyze-histogram-too-large": (
        ["analyze", "--in", "{clicks}", "--group-n", "100000",
         "--mode", "disjoint", "--out", "{tmp}/h2.jhist"], 2,
        "pass a smaller --group-n"),
    "quasidist-steps-zero": (
        ["quasidist", "--dist", "{jdist}", "--s", "0", "--steps", "0",
         "--out", "{tmp}/g.igrid"], 2, "--steps"),
    "quasidist-photocount-jdist": (
        ["quasidist", "--dist", "{jdist_photocount}", "--s", "0",
         "--out", "{tmp}/g.igrid"], 3, "kind"),
    "ncd-photocount-jdist": (
        ["ncd", "--dist", "{jdist_photocount}", "--out", "{tmp}/r.json"],
        3, "kind"),
    "quasidist-s-nan": (
        ["quasidist", "--dist", "{jdist}", "--s=nan",
         "--out", "{tmp}/g.igrid"], 2, "--s"),
    "quasidist-s-minus-inf": (
        ["quasidist", "--dist", "{jdist}", "--s=-inf",
         "--out", "{tmp}/g.igrid"], 2, "--s"),
    "quasidist-s-out-of-double-range": (
        ["quasidist", "--dist", "{jdist}", "--s=-1e300",
         "--out", "{tmp}/g.igrid"], 2, "double range"),
    "quasidist-w-max-negative": (
        ["quasidist", "--dist", "{jdist}", "--s", "0", "--w-max", "-1",
         "--out", "{tmp}/g.igrid"], 2, "--w-max"),
    "quasidist-s-near-one": (
        ["quasidist", "--dist", "{jdist}", "--s", "0.9999999999999999",
         "--steps", "16", "--out", "{tmp}/g.igrid"], 4,
        "the grid holds 0 of the table's mass 1"),
    "quasidist-grid-above-the-mass": (
        ["quasidist", "--dist", "{jdist_twb10}", "--s", "0.5", "--steps", "16",
         "--out", "{tmp}/g.igrid"], 4, "the grid holds 754 of the table's"),
    "sweep-fano-past-largest-n": (
        ["sweep", "--metric", "fano", "--groups", "10000"], 4,
        "largest feasible n is 7004"),
    "sweep-tau-e-past-largest-n": (
        ["sweep", "--metric", "tau-e", "--groups", "20000"], 4,
        "largest feasible n is 7004"),
    "jhist-all-zero": (
        ["reconstruct", "--hist", "{hist_zero}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "sum to 0"),
    "jhist-negative-count": (
        ["reconstruct", "--hist", "{hist_negative}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "nonnegative"),
    "jhist-total-not-n-groups": (
        ["reconstruct", "--hist", "{hist_total}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "n_groups = 12"),
    "simulate-seed-negative": (
        ["simulate", "--windows", "100", "--seed", "-1",
         "--out", "{tmp}/s.clicks"], 2, "--seed"),
    "clicks-code-above-3": (
        ["analyze", "--in", "{clicks_high}", "--group-n", "5",
         "--out", "{tmp}/h2.jhist"], 3, "above 3"),
    "config-not-utf8": (
        ["sweep", "--config", "{config_latin1}", "--groups", "1"],
        2, "not UTF-8"),
    "jhist-saturated": (
        ["reconstruct", "--hist", "{hist_saturated}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "--n-max"),
    "jdist-tail-mass-text": (
        ["ncd", "--dist", "{jdist_tail_mass}", "--out", "{tmp}/r.json"],
        3, "tail_mass"),
    "jdist-truncation-flag-disagrees": (
        ["ncd", "--dist", "{jdist_flag_off}", "--out", "{tmp}/r.json"],
        3, "truncation_dirty False contradicts"),
    "jdist-dims-not-list": (
        ["ncd", "--dist", "{jdist_dims}", "--out", "{tmp}/r.json"],
        3, "dims"),
    "jhist-dims-not-list": (
        ["reconstruct", "--hist", "{hist_dims}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "dims"),
    "jhist-group-n-text": (
        ["reconstruct", "--hist", "{hist_group_n}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "group_n"),
    "jhist-mode-number": (
        ["reconstruct", "--hist", "{hist_mode}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "mode"),
    "jhist-group-n-zero": (
        ["reconstruct", "--hist", "{hist_group_n_zero}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "group_n"),
    "jdist-kind-number": (
        ["ncd", "--dist", "{jdist_kind}", "--out", "{tmp}/r.json"],
        3, "kind"),
    "jdist-nan-cell": (
        ["ncd", "--dist", "{jdist_nan}", "--out", "{tmp}/r.json"],
        3, "finite and >= 0"),
    "jdist-negative-cell": (
        ["quasidist", "--dist", "{jdist_negative}", "--s", "0",
         "--out", "{tmp}/g.igrid"], 3, "finite and >= 0"),
    "jdist-mass-off": (
        ["ncd", "--dist", "{jdist_mass}", "--out", "{tmp}/r.json"],
        3, "sum to 0.8"),
    "jdist-payload-csv": (
        ["ncd", "--dist", "{jdist_payload}", "--out", "{tmp}/r.json"],
        3, "bad payload: 'csv'"),
    "reconstruct-support-below-clicks": (
        ["reconstruct", "--hist", "{hist}", "--eta-s", "0.282", "--eta-i",
         "0.33", "--n-max", "1", "--out", "{tmp}/p.jdist"], 3,
        "zero probability"),
    "reconstruct-too-many-cells": (
        ["reconstruct", "--hist", "{hist_crowded}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--n-max", "80", "--out", "{tmp}/p.jdist"], 3,
        "observed click cells, more than the"),
    "jhist-payload-f64": (
        ["reconstruct", "--hist", "{hist_payload}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "bad payload: 'f64'"),
}


@pytest.fixture
def bad_input_files(tmp_path, nominal):
    params, spec_s, spec_i = nominal
    stream = sample_stream(params, spec_s, spec_i,
                           PumpCorrelation(0.0, 100), 2_000, seed=8)
    hist = str(tmp_path / "h.jhist")
    tbio.write_jhist(group_histogram(stream, GroupingPolicy(5, "disjoint")), hist)
    partial = tmp_path / "params.json"
    partial.write_text(json.dumps({"m_p": 10, "m_s": 10, "m_i": 10,
                                   "b_p": 0.01, "b_s": 0.0}))
    clicks = str(tmp_path / "s.clicks")
    tbio.write_clicks(stream, clicks)
    files = {"tmp": str(tmp_path), "hist": hist, "params": str(partial),
             "clicks": clicks}
    for key, sidecar in (("clicks_cut", "{bad"), ("clicks_list", "[1]"),
                         ("clicks_params", '{"params": {"m_p": 1}}')):
        files[key] = str(tmp_path / f"{key}.clicks")
        tbio.write_clicks(stream, files[key])
        (tmp_path / f"{key}.clicks.json").write_text(sidecar)
    files["params_cut"] = str(tmp_path / "cut.json")
    (tmp_path / "cut.json").write_text('{"m_p": 10')
    files["params_list"] = str(tmp_path / "list.json")
    (tmp_path / "list.json").write_text("[10, 10, 10]")
    files["params_text"] = str(tmp_path / "text.json")
    (tmp_path / "text.json").write_text(json.dumps(
        {"m_p": "ten", "m_s": 10, "m_i": 10, "b_p": 0.01, "b_s": 0.0,
         "b_i": 0.0}))
    for key, counts, n_groups in (("hist_zero", [[0, 0], [0, 0]], 0),
                                  ("hist_negative", [[4, -1], [2, 5]], 10),
                                  ("hist_total", [[4, 1], [2, 3]], 12)):
        files[key] = str(tmp_path / f"{key}.jhist")
        tbio.write_jhist(JointHistogram(np.array(counts), n_groups,
                                        GroupingPolicy(1, "disjoint")),
                         files[key])
    # every cell of a 64-pixel histogram observed: more cells than the
    # Newton system is built for
    files["hist_crowded"] = str(tmp_path / "crowded.jhist")
    tbio.write_jhist(JointHistogram(np.ones((65, 65), dtype=int), 65 * 65,
                                    GroupingPolicy(64, "disjoint")),
                     files["hist_crowded"])
    # every window clicks on both arms: no reference spread to divide by
    files["clicks_both"] = str(tmp_path / "both.clicks")
    tbio.write_clicks(stream_of(np.full(1000, 0b11, dtype=np.uint8)),
                      files["clicks_both"])
    high = codes_of(stream)
    high[[3, 11]] = (7, 200)
    files["clicks_high"] = str(tmp_path / "high.clicks")
    tbio.write_clicks(stream_of(high, stream.meta), files["clicks_high"])
    files["config_latin1"] = str(tmp_path / "latin1.cfg")
    (tmp_path / "latin1.cfg").write_bytes(b"metric = nrp  # caf\xe9\n")
    jdist = str(tmp_path / "d.jdist")
    tbio.write_jdist(window_click_dist(params, spec_s, spec_i), jdist)
    files["jdist"] = jdist
    # ten nominal beams: a 16-step grid at s = 0.5 holds 754 times their mass
    files["jdist_twb10"] = str(tmp_path / "twb10.jdist")
    tbio.write_jdist(core.joint_twb(params.scaled(10)), files["jdist_twb10"])
    # payloads of one bad cell each
    for key, cell in (("jdist_nan", np.nan), ("jdist_negative", -0.25)):
        table = window_click_dist(params, spec_s, spec_i).table
        table[1, 0] = cell
        files[key] = str(tmp_path / f"{key}.jdist")
        tbio.write_jdist(JointDist(table, 0.0), files[key])
    # cells of 0.8 and no tail: not a distribution
    files["jdist_mass"] = str(tmp_path / "mass.jdist")
    tbio.write_jdist(JointDist(np.array([[0.5, 0.1], [0.1, 0.1]]), 0.0),
                     files["jdist_mass"])
    # a tail of 1e-4, above the truncation ceiling: its header flag is set
    dirty = str(tmp_path / "dirty.jdist")
    tbio.write_jdist(JointDist(window_click_dist(params, spec_s, spec_i).table
                               * (1 - 1e-4), 1e-4), dirty)
    blob = open(jdist, "rb").read()
    header, body = tbio._unpack("jdist-v1", blob)
    del header["dims"]
    files["jdist_no_dims"] = str(tmp_path / "no_dims.jdist")
    with open(files["jdist_no_dims"], "wb") as fh:
        fh.write(tbio._pack("jdist-v1", header, body))
    hist_saturated = JointHistogram(np.array([[3, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                    5, GroupingPolicy(2, "disjoint"))
    files["hist_saturated"] = str(tmp_path / "saturated.jhist")
    tbio.write_jhist(hist_saturated, files["hist_saturated"])
    # headers of the right keys with values of the wrong type or range
    for key, fmt, source, change in (
            ("jdist_tail_mass", "jdist-v1", jdist, {"tail_mass": "x"}),
            ("jdist_dims", "jdist-v1", jdist, {"dims": 5}),
            ("jdist_kind", "jdist-v1", jdist, {"kind": 3}),
            ("jdist_photocount", "jdist-v1", jdist, {"kind": "photocount"}),
            ("jdist_payload", "jdist-v1", jdist, {"payload": "csv"}),
            ("jdist_flag_off", "jdist-v1", dirty, {"truncation_dirty": False}),
            ("hist_dims", "jhist-v1", hist, {"dims": 5}),
            ("hist_group_n", "jhist-v1", hist, {"group_n": "2"}),
            ("hist_mode", "jhist-v1", hist, {"mode": 5}),
            ("hist_group_n_zero", "jhist-v1", hist, {"group_n": 0}),
            ("hist_payload", "jhist-v1", hist, {"payload": "f64"})):
        header, body = tbio._unpack(fmt, open(source, "rb").read())
        files[key] = str(tmp_path / key)
        with open(files[key], "wb") as fh:
            fh.write(tbio._pack(fmt, {**header, **change}, body))
    header_end = 12 + int.from_bytes(blob[8:12], "little")
    hist_blob = open(hist, "rb").read()
    for key, data in (("jdist_head", blob[:header_end - 5]),
                      ("jdist_body", blob[:-3]),
                      ("hist_cut", hist_blob[:-2])):
        files[key] = str(tmp_path / key)
        with open(files[key], "wb") as fh:
            fh.write(data)
    return files


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_without_traceback(bad_input_files, case):
    argv, code, fragment = BAD_INPUTS[case]
    proc = run_python("-m", "twinbeam.cli",
                      *(arg.format(**bad_input_files) for arg in argv))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert fragment in proc.stderr
