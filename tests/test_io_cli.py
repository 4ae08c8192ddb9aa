import argparse
import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (IntensityGrid, JointHistogram, PumpCorrelation,
                      fano_nrp_cov, group_histogram, joint_twb, ml_joint,
                      moments, precision_improvement, quasi_distribution,
                      sample_stream)
from oracles import (codes_of, compound_click_moments_by_table,
                     compound_photon_dist, gauss_hermite, stream_of,
                     window_click_dist)
from twinbeam import core, detection, models, simulate
from twinbeam import io as tbio
from twinbeam.cli import build_parser, main
from twinbeam.detection import SUPPORT_TAIL
from twinbeam.errors import DataError, UsageError
from twinbeam.metrology import effective_efficiency
from twinbeam.reconstruct import CERTIFICATE
from twinbeam.simulate import CHUNK, ClickStream

SRC = str(Path(__file__).resolve().parents[1] / "src")
#: Sweep CSVs recorded by the benchmark at an earlier commit (read only).
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def run_python(*argv):
    """Run a fresh interpreter with only the package source on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def container(fmt: str, header: dict, body: bytes) -> bytes:
    """The bytes of a ``fmt`` container, even of a header the writers refuse."""
    head = json.dumps(header, sort_keys=True).encode()
    return tbio.MAGIC[fmt] + len(head).to_bytes(4, "little") + head + body


def unpack(blob: bytes) -> tuple[dict, bytes]:
    """The header and payload of a container's bytes, as ``container`` lays
    them out, parsed without the reader's checks."""
    end = 12 + int.from_bytes(blob[8:12], "little")
    return json.loads(blob[12:end]), blob[end:]


def jdist_bytes(table: np.ndarray) -> bytes:
    """The bytes of a jdist of ``table``, even of cells the writer refuses."""
    return container("jdist-v1", {"dims": list(table.shape), "kind": "photon",
                                  "payload": "f64"},
                     table.astype("<f8").tobytes())


def deviance(counts: np.ndarray, projected: np.ndarray) -> float:
    """``G^2 = 2 sum_j N_j log(N_j / (N q_j))`` over the observed cells."""
    observed = counts > 0
    found, total = counts[observed], counts.sum()
    return float(2 * found @ np.log(found / (total * projected[observed])))


def jhist_bytes(counts: np.ndarray, mode: str = "disjoint") -> bytes:
    """The bytes of a jhist of ``counts``, even of counts the writer refuses."""
    body = "\n".join(",".join(map(str, row)) for row in counts).encode()
    return container("jhist-v1", {
        "dims": list(counts.shape), "n_groups": int(counts.sum()),
        "group_n": counts.shape[0] - 1, "mode": mode, "payload": "csv"}, body)


#: CSV payloads that a 3 x 3 jhist (group_n 2) may not hold, by what is wrong.
BAD_CSV = {
    "cell-not-integer": b"1,1,1\n1,4.5,1\n1,1,1",
    "row-short": b"1,1,1\n1,1\n1,1,1",
    "row-long": b"1,1,1\n1,1,1,1\n1,1,1",
    "blank-line": b"1,1,1\n\n1,1,1\n1,1,1",
    "cell-past-int64": b"1,1,1\n1,9223372036854775808,1\n1,1,1",
    "empty": b"",
}


def bad_csv_jhist(payload: bytes) -> bytes:
    """A 3 x 3 jhist of nine groups whose payload is ``payload``."""
    return container("jhist-v1", {"dims": [3, 3], "n_groups": 9, "group_n": 2,
                                  "mode": "disjoint", "payload": "csv"},
                     payload)


def clicks_bytes(codes: np.ndarray, count: int | None = None) -> bytes:
    """The bytes of a clicks-v1 file of ``codes`` under a header of ``count``
    windows (by default as many as the codes), even of codes above 3."""
    count = len(codes) if count is None else count
    return (tbio.CLICKS_MAGIC + count.to_bytes(8, "little")
            + np.asarray(codes, dtype=np.uint8).tobytes())


#: Streams that break ``ClickStream``'s contract, by the rule they break: a
#: code above 3, fewer or more codes than they declare, and codes of a wider
#: dtype than uint8.  Each holds its stream, the bytes of a clicks-v1 file of
#: it (None where no file holds it) and the message it is refused with.
BAD_STREAMS = {
    "code-7": (stream_of([0, 1, 7, 3]), clicks_bytes([0, 1, 7, 3]),
               "window code 7 above 3"),
    "short": (ClickStream(5, lambda: iter([np.zeros(3, np.uint8)]), {}),
              clicks_bytes([0, 0, 0], 5),
              "truncated stream: it declares 5 windows and holds 3"),
    "long": (ClickStream(3, lambda: iter([np.zeros(5, np.uint8)]), {}), None,
             "overlong stream: it declares 3 windows and holds more"),
    "int64": (ClickStream(4, lambda: iter([np.arange(4, dtype=np.int64)]),
                          {}),
              None, "window codes are uint8, not int64"),
}


#: Records each writer refuses, by format: the record, the bytes the writer
#: would have written (None where no file holds the record), and the message
#: that writer and reader both give.
WRITE_REFUSALS = {
    "jhist-mode": (
        "jhist", JointHistogram(np.ones((2, 2)), "tumbling"),
        jhist_bytes(np.ones((2, 2), int), "tumbling"),
        "jhist-v1 header has a bad mode: 'tumbling'"),
    "jhist-not-square": (
        "jhist", JointHistogram(np.ones((2, 3)), "sliding"),
        jhist_bytes(np.ones((2, 3), int), "sliding"),
        r"jhist dims \[2, 3\] do not fit group_n 1: need \[2, 2\]"),
    "jhist-negative-count": (
        "jhist", JointHistogram(np.array([[4, -1], [2, 5]]), "disjoint"),
        jhist_bytes(np.array([[4, -1], [2, 5]])),
        "jhist counts must be nonnegative and sum to n_groups = 10 > 0; "
        "they sum to 10"),
    "jhist-all-zero": (
        "jhist", JointHistogram(np.zeros((2, 2)), "disjoint"),
        jhist_bytes(np.zeros((2, 2), int)), "they sum to 0"),
    "igrid-w-max-nan": (
        "igrid", IntensityGrid(np.zeros((2, 2)), math.nan, 1.0, 0.0),
        container("igrid-v1", {"dims": [2, 2], "w_max_s": math.nan,
                               "w_max_i": 1.0, "s": 0.0, "payload": "f64"},
                  bytes(32)),
        "igrid-v1 header has a bad w_max_s: nan"),
    "jdist-one-axis": (
        "jdist", np.zeros(3), jdist_bytes(np.zeros(3)),
        r"jdist-v1 header has a bad dims: \[3\]"),
    "jdist-mass": (
        "jdist", np.array([[0.5, 0.1], [0.1, 0.1]]),
        jdist_bytes(np.array([[0.5, 0.1], [0.1, 0.1]])),
        "jdist cells sum to 0.8, not 1"),
    "jdist-nan": (
        "jdist", np.array([[0.5, np.nan], [0.25, 0.25]]),
        jdist_bytes(np.array([[0.5, np.nan], [0.25, 0.25]])),
        "jdist cells must be finite and >= 0"),
    **{f"clicks-{key}": ("clicks", *case) for key, case in BAD_STREAMS.items()},
}


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

    def test_clicks_cut_after_the_header_check_is_a_data_error(self,
                                                                tmp_path):
        path = str(tmp_path / "s.clicks")
        tbio.write_clicks(stream_of(np.zeros(2 * CHUNK, np.uint8)), path)
        stream = tbio.read_clicks(path)
        with open(path, "r+b") as fh:
            fh.truncate(24 + CHUNK + 7)
        with pytest.raises(DataError, match="truncated stream: it declares "
                           f"{2 * CHUNK} windows and holds {CHUNK + 7}"):
            codes_of(stream)

    def test_failed_write_leaves_no_file(self, tmp_path):
        def chunks():
            yield np.zeros(CHUNK, np.uint8)
            raise RuntimeError("drawing stopped")

        with pytest.raises(RuntimeError, match="drawing stopped"):
            tbio.write_clicks(ClickStream(2 * CHUNK, chunks, {}),
                              str(tmp_path / "s.clicks"))
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_holds_each_record_as_its_fields(self, tmp_path,
                                                     nominal):
        params, spec_s, spec_i = nominal
        stream = sample_stream(params, spec_s, spec_i,
                               PumpCorrelation(1e-3, 100), 10, seed=5)
        path = str(tmp_path / "s.clicks")
        tbio.write_clicks(stream, path)
        meta = json.loads(open(path + ".json").read())
        assert meta == {"format": "clicks-v1", "n_windows": 10, "seed": 5,
                        "params": vars(params), "spec_s": vars(spec_s),
                        "spec_i": vars(spec_i),
                        "pump": {"k": 1e-3, "block_len": 100}}

    def test_write_json_encodes_nested_records_as_their_fields(self,
                                                               tmp_path):
        path = str(tmp_path / "r.json")
        pump = PumpCorrelation(1e-3, 100)
        tbio.write_json({"arms": [pump, {"pump": pump}], "n": 2}, path)
        fields = {"block_len": 100, "k": 1e-3}
        assert json.loads(open(path).read()) == {
            "arms": [fields, {"pump": fields}], "n": 2}
        with pytest.raises(TypeError):
            tbio.write_json({"table": np.zeros(2)}, path)
        with pytest.raises(TypeError):
            tbio.write_json([PumpCorrelation], path)    # the class, no record

    def test_jdist_round_trip(self, tmp_path, nominal):
        d = window_click_dist(*nominal)
        path = str(tmp_path / "d.jdist")
        tbio.write_jdist(d, path)
        back = tbio.read_jdist(path)
        assert np.array_equal(back, d)
        # the header tag that perfbench/check.py requires of every jdist
        header, _ = unpack(open(path, "rb").read())
        assert header == {"dims": [2, 2], "kind": "photon", "payload": "f64"}

    def test_twb_jdist_round_trip(self, tmp_path, nominal):
        d = joint_twb(nominal[0].scaled(10))
        path = str(tmp_path / "twb.jdist")
        tbio.write_jdist(d, path)
        back = tbio.read_jdist(path)
        assert np.array_equal(back, d)
        assert back.sum() == pytest.approx(1.0, abs=1e-12)

    def test_container_writers_copy_no_payload(self, tmp_path):
        # the header goes out first and the cells straight from the table:
        # only the jdist's cell check allocates, two boolean tables
        values = np.full((1119, 1119), 1.0 / 1119 ** 2)
        for fmt, write, header, obj in (
                ("jdist-v1", tbio.write_jdist,
                 {"dims": [1119, 1119], "kind": "photon", "payload": "f64"},
                 values),
                ("igrid-v1", tbio.write_igrid,
                 {"dims": [1119, 1119], "payload": "f64", "s": -0.5,
                  "w_max_i": 3.0, "w_max_s": 2.0},
                 IntensityGrid(values, 2.0, 3.0, -0.5))):
            path = str(tmp_path / fmt)
            tracemalloc.start()
            try:
                write(obj, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.5 * values.nbytes, fmt
            assert open(path, "rb").read() == container(fmt, header,
                                                        values.tobytes())

    def test_container_readers_hold_one_table(self, tmp_path):
        # the payload goes straight from the file into the table: beside it
        # only the jdist's cell check allocates, two boolean tables
        values = np.full((1119, 1119), 1.0 / 1119 ** 2)
        for path, write, read, obj in (
                (tmp_path / "d.jdist", tbio.write_jdist, tbio.read_jdist,
                 values),
                (tmp_path / "g.igrid", tbio.write_igrid, tbio.read_igrid,
                 IntensityGrid(values, 2.0, 3.0, -0.5))):
            write(obj, str(path))
            tracemalloc.start()
            try:
                back = read(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.3 * values.nbytes, path.name
            table = back if isinstance(back, np.ndarray) else back.values
            assert np.array_equal(table, values)

    @pytest.mark.parametrize("fmt, reader, header", [
        ("jdist-v1", tbio.read_jdist, {"kind": "photon", "payload": "f64"}),
        ("igrid-v1", tbio.read_igrid, {"payload": "f64", "s": -0.5,
                                       "w_max_i": 3.0, "w_max_s": 2.0})],
        ids=["jdist", "igrid"])
    def test_huge_dims_are_refused_before_the_table_is_made(
            self, tmp_path, fmt, reader, header):
        # an 80 GB table declared over 32 bytes: the size check comes first
        path = tmp_path / "huge"
        path.write_bytes(container(fmt, {**header, "dims": [100000, 100000]},
                                   bytes(32)))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="does not hold"):
                reader(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_jdist_with_the_old_tail_header_reads_the_same(self, tmp_path,
                                                            nominal):
        # jdist files once carried tail_mass and truncation_dirty; such a
        # file gives the same table, and ncd and quasidist the same bytes
        table = joint_twb(nominal[0].scaled(10))
        new, old = str(tmp_path / "new.jdist"), str(tmp_path / "old.jdist")
        tbio.write_jdist(table, new)
        header, body = unpack(open(new, "rb").read())
        with open(old, "wb") as fh:
            fh.write(tbio._pack("jdist-v1", {
                **header, "tail_mass": 0.0, "truncation_dirty": False}) + body)
        assert np.array_equal(tbio.read_jdist(old), table)
        outputs = []
        for name, dist in (("new", new), ("old", old)):
            report, grid = str(tmp_path / f"{name}.json"), \
                str(tmp_path / f"{name}.igrid")
            assert main(["ncd", "--dist", dist, "--out", report]) == 0
            assert main(["quasidist", "--dist", dist, "--s", "-0.5",
                         "--steps", "32", "--out", grid]) == 0
            outputs.append([open(p, "rb").read() for p in (report, grid)])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("case", WRITE_REFUSALS.values(),
                             ids=WRITE_REFUSALS.keys())
    def test_writers_refuse_what_readers_refuse(self, tmp_path, case):
        # the refused write leaves no file, temporary or sidecar, and the
        # bytes it would have written, made by hand, are refused on reading
        # (a stream's chunks as they are read) with its message
        fmt, record, blob, message = case
        path = tmp_path / f"out.{fmt}"
        with pytest.raises(DataError, match=message):
            getattr(tbio, f"write_{fmt}")(record, str(path))
        assert os.listdir(tmp_path) == []
        if blob is None:
            return
        path.write_bytes(blob)
        with pytest.raises(DataError, match=message):
            read = getattr(tbio, f"read_{fmt}")(str(path))
            if fmt == "clicks":
                codes_of(read)

    def test_jhist_round_trip(self, tmp_path, nominal):
        params, spec_s, spec_i = nominal
        stream = sample_stream(params, spec_s, spec_i,
                               PumpCorrelation(0.0, 100), 20_000, seed=6)
        h = group_histogram(stream, 5, "disjoint")
        path = str(tmp_path / "h.jhist")
        tbio.write_jhist(h, path)
        back = tbio.read_jhist(path)
        assert np.array_equal(back.counts, h.counts)
        assert back.n_groups == h.n_groups == 4_000
        assert back.mode == h.mode == "disjoint"
        assert back.counts.shape[0] - 1 == 5

    def test_jhist_bytes_are_fixed(self, tmp_path):
        path = tmp_path / "h.jhist"
        counts = np.array([[0, 12, 3], [7, 0, 100], [1, 0, 2]])
        tbio.write_jhist(JointHistogram(counts, "sliding"), str(path))
        head = (b'{"dims": [3, 3], "group_n": 2, "mode": "sliding", '
                b'"n_groups": 125, "payload": "csv"}')
        assert path.read_bytes() == (b"TWBJHIS1" + bytes([len(head), 0, 0, 0])
                                     + head + b"0,12,3\n7,0,100\n1,0,2")

    @pytest.mark.parametrize("payload", BAD_CSV.values(), ids=BAD_CSV.keys())
    def test_bad_csv_payload_is_refused_without_a_warning(self, tmp_path,
                                                          payload):
        # numpy would skip a blank line and warn of an empty payload; the
        # reader refuses both, as it refuses every other malformed table
        path = tmp_path / "bad.jhist"
        path.write_bytes(bad_csv_jhist(payload))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="CSV payload"):
                tbio.read_jhist(str(path))
        assert caught == []

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
        header, body = unpack(valid_containers["igrid"])
        path = tmp_path / "csv.igrid"
        path.write_bytes(container("igrid-v1", {**header, "payload": "csv"},
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
    hist = JointHistogram(np.array([[4, 1], [2, 3]]), "disjoint")
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
        assert set(grid_diag) == {"normalization", "normalization_window",
                                  "min", "edge_sensitivity",
                                  "edge_sensitivity_limit"}
        assert 0 <= grid_diag["edge_sensitivity"] \
            <= grid_diag["edge_sensitivity_limit"] < math.inf
        assert grid_diag["normalization_window"] == pytest.approx([0.5, 2.0])
        assert json.loads(open(report + ".manifest.json").read())[
            "diagnostics"] == {}
        assert f"normalization={grid_diag['normalization']:.6f}" in printed.split()
        assert f"min={grid_diag['min']:.4e}" in printed.split()

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
        hist = group_histogram(stream, 1000, "disjoint")
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
            dist[edge[:, None] | edge[None, :]].sum(), rel=1e-12, abs=0)
        assert 0 <= edge_mass <= 1
        assert diag.pop("edge_mass_limit") == SUPPORT_TAIL
        assert diag.pop("edge_mass_ok") is (edge_mass <= SUPPORT_TAIL)
        # the mean data log-likelihood of the written estimate, recomputed
        # from the two files as the benchmark's check does
        loglik = diag.pop("log_likelihood")
        t_s, t_i = (detection.detection_matrix(
            detection.DetectorSpec(eta, dark, len(hist.counts) - 1),
            n_max).entries[:len(hist.counts)]
            for eta, dark in ((0.282, 2.8e-3), (0.330, 3.8e-3)))
        data = hist.counts / hist.counts.sum()
        observed = data > 0
        projected = t_s @ dist @ t_i.T
        assert loglik == pytest.approx(
            float(data[observed] @ np.log(projected[observed])),
            rel=0, abs=1e-12)
        # each Newton step's bound and log-likelihood, the last reported
        trajectory = diag.pop("trajectory")
        assert len(trajectory) == steps
        assert trajectory[-1] == {"lindsay_bound": bound,
                                  "log_likelihood": loglik}
        # 300 groups of 1000 windows leave far fewer clicks than pixels
        assert diag.pop("saturated") is False
        assert diag.pop("deviance") == pytest.approx(
            deviance(hist.counts, projected), rel=1e-9)
        cells = int(np.count_nonzero(hist.counts))
        assert diag == {"c_max": c_max, "n_max": n_max,
                        "observed_cells": cells, "converged": True}
        assert dist.shape == (n_max + 1, n_max + 1)
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
        assert dist.min() >= 0
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_explicit_n_max_wins(self, tmp_path, capsys, nominal):
        _, dist, diag, _ = self.reconstruct_thousand(tmp_path, capsys, nominal,
                                                     "--n-max", "90")
        assert diag["n_max"] == 90
        assert dist.shape == (91, 91)

    def test_n_max_zero_is_a_support_not_the_default(self, tmp_path, capsys,
                                                     nominal):
        # photon number 0 alone, which the dark counts reach
        _, dist, diag, _ = self.reconstruct_thousand(tmp_path, capsys, nominal,
                                                     "--n-max", "0")
        manifest = json.loads(open(str(tmp_path / "p.jdist")
                                   + ".manifest.json").read())
        assert manifest["parameters"]["n_max"] == 0
        assert diag["n_max"] == 0
        assert dist.shape == (1, 1)

    def reconstruct_chain(self, tmp_path, windows, seed, n, *extra):
        """Simulate without drift, group disjoint by ``n`` and reconstruct
        with the nominal detectors: the histogram, the detection matrices'
        click rows, the estimate and the manifest's diagnostics."""
        clicks, hist, dist = (str(tmp_path / name) for name in
                              ("s.clicks", "h.jhist", "p.jdist"))
        assert self.run("simulate", "--windows", str(windows), "--seed",
                        str(seed), "--out", clicks) == 0
        assert self.run("analyze", "--in", clicks, "--group-n", str(n),
                        "--mode", "disjoint", "--out", hist) == 0
        assert self.run("reconstruct", "--hist", hist, "--eta-s", "0.282",
                        "--eta-i", "0.330", "--dark-s", "0.0028",
                        "--dark-i", "0.0038", "--out", dist, *extra) == 0
        diag = json.loads(open(dist + ".manifest.json").read())["diagnostics"]
        t_s, t_i = (detection.detection_matrix(
            detection.DetectorSpec(eta, dark, n), diag["n_max"]).entries
            for eta, dark in ((0.282, 0.0028), (0.330, 0.0038)))
        return tbio.read_jhist(hist).counts, t_s, t_i, tbio.read_jdist(dist), diag

    def test_saturated_single_windows_are_flagged(self, tmp_path):
        # one window per group clicks up to its one pixel: four cells that a
        # photon table on any support fits exactly
        counts, t_s, t_i, dist, diag = self.reconstruct_chain(
            tmp_path, 100_000, 2, 1, "--n-max", "10")
        assert diag["c_max"] == 1 and diag["saturated"] is True
        assert diag["converged"] is True
        assert abs(diag["deviance"]) < 1e-6
        assert diag["deviance"] == pytest.approx(
            deviance(counts, t_s @ dist @ t_i.T), rel=0, abs=1e-6)

    def test_identified_rung_has_a_nonnegative_deviance(self, tmp_path):
        # the sizes of the benchmark's recon-n100 workload, seed 1
        counts, t_s, t_i, dist, diag = self.reconstruct_chain(
            tmp_path, 2_000_000, 1, 100, "--max-iters", "300")
        assert diag["c_max"] < 100 and diag["saturated"] is False
        assert diag["converged"] is True
        # no photon table fits the observed cells better than their own
        # frequencies do
        assert diag["deviance"] >= 0
        assert diag["deviance"] == pytest.approx(
            deviance(counts, t_s @ dist @ t_i.T), rel=1e-9)

    def test_saturated_single_windows_fail_the_edge_check(self, tmp_path,
                                                          capsys):
        # the estimate follows the support that --n-max sets: its last
        # tenth holds far more than the support's tail
        *_, diag = self.reconstruct_chain(tmp_path, 100_000, 2, 1,
                                          "--n-max", "10")
        assert diag["edge_mass"] > 100 * SUPPORT_TAIL
        assert diag["edge_mass_limit"] == SUPPORT_TAIL
        assert diag["edge_mass_ok"] is False
        # quasidist's series check sees that edge: a small shift passes at
        # s = -0.5, and at s = 0.3 the edge's weight grows past its limit
        dist, grid = str(tmp_path / "p.jdist"), str(tmp_path / "g.igrid")
        assert self.run("quasidist", "--dist", dist, "--s", "-0.5",
                        "--out", grid) == 0
        diag = json.loads(open(grid + ".manifest.json").read())["diagnostics"]
        assert 0 < diag["edge_sensitivity"] <= diag["edge_sensitivity_limit"]
        assert self.run("quasidist", "--dist", dist, "--s", "0.3",
                        "--out", grid) == 4
        assert "support-edge sensitivity" in capsys.readouterr().err

    def test_identified_rung_passes_the_edge_check(self, tmp_path):
        # the sizes of the benchmark's recon-n100 workload, seed 1
        *_, diag = self.reconstruct_chain(tmp_path, 2_000_000, 1, 100,
                                          "--max-iters", "300")
        assert 0 <= diag["edge_mass"] < 1e-6 * SUPPORT_TAIL
        assert diag["edge_mass_ok"] is True
        # and quasidist's two checks record a value on the passing side of
        # the limit next to it
        grid = str(tmp_path / "g.igrid")
        assert self.run("quasidist", "--dist", str(tmp_path / "p.jdist"),
                        "--s", "-0.5", "--out", grid) == 0
        diag = json.loads(open(grid + ".manifest.json").read())["diagnostics"]
        assert 0 <= diag["edge_sensitivity"] <= diag["edge_sensitivity_limit"]
        low, high = diag["normalization_window"]
        assert 0 < low <= diag["normalization"] <= high

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
        cfg.write_text("# a sweep\n\n   \nmetric = nrp\n"
                       "groups = 1,10,100  # ladder\n  # metric = fano\n")
        assert self.run("sweep", "--config", str(cfg), "--groups", "1") == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2
        assert out.startswith("n,compound_nrp,genuine_nrp\n1,")

    def test_usage_error_exit_code(self, tmp_path):
        dist = str(tmp_path / "p.jdist")
        tbio.write_jdist(np.array([[1.0]]), dist)
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
        x, w = gauss_hermite()
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

    def test_analyze_efficiencies_round_only_their_last_steps(self, tmp_path,
                                                              stream_1m):
        # sliding n = 1000: the moments are integer sums over the group
        # count, so only their quotients, the covariance and the division
        # round, by less than effective_efficiency's own bound on the
        # digits the covariance loses
        clicks, hist = str(tmp_path / "s.clicks"), str(tmp_path / "h.jhist")
        tbio.write_clicks(stream_1m, clicks)
        assert self.run("analyze", "--in", clicks, "--group-n", "1000",
                        "--out", hist) == 0
        diag = json.loads(open(hist + ".manifest.json").read())["diagnostics"]
        counts, c = tbio.read_jhist(hist).counts, np.arange(1001)
        total = int(counts.sum())
        m10, m01, m11 = (Fraction(int(s), total) for s in (
            c @ counts.sum(axis=1), c @ counts.sum(axis=0), c @ counts @ c))
        lost = np.finfo(float).eps * float(m11 + m10 * m01)
        for name, other in (("signal", m01), ("idler", m10)):
            exact = (m11 - m10 * m01) / other
            assert abs(diag["effective_efficiency"][name] - exact) \
                <= 2 * lost / other, name

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


def loaded_after(module: str, argv: list, tmp_path) -> str:
    """``"<exit code> <whether module is loaded>"`` after ``main(argv)`` has
    run in a fresh interpreter, each ``{tmp}`` in ``argv`` read as
    ``tmp_path``."""
    probe = ("import sys\n"
             "from twinbeam.cli import main\n"
             "try:\n"
             "    code = main(sys.argv[2:])\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             "print(code, sys.argv[1] in sys.modules)")
    proc = run_python("-c", probe, module,
                      *(arg.format(tmp=tmp_path) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["sweep", "--metric", "fano", "--groups", "1,10", "--out", "{tmp}/f.csv"],
    ["--help"]], ids=["sweep", "help"])
def test_commands_without_inputs_leave_openssl_unloaded(tmp_path, argv):
    # a sweep digests no input, so its process never maps libcrypto
    assert loaded_after("_hashlib", argv, tmp_path) == "0 False"


@pytest.mark.parametrize("argv", [
    ["sweep", "--metric", "eta-eff", "--k-pump", "0.000965", "--groups",
     "1,10", "--out", "{tmp}/e.csv"],
    ["simulate", "--windows", "1000", "--seed", "1", "--k-pump", "0.000965",
     "--out", "{tmp}/s.clicks"]], ids=["sweep", "simulate"])
def test_drift_averages_leave_numpy_polynomial_unloaded(tmp_path, argv):
    # the pump-drift average takes fixed grid nodes: no Gauss-Hermite
    # eigen-solve, whose LAPACK workspace raised each such process's peak
    assert loaded_after("numpy.polynomial", argv, tmp_path) == "0 False"


#: Public functions and members that no other code of the package names,
#: and why each stays.
LIBRARY_ENTRY_POINTS = {
    "read_igrid": "the reader of the igrid-v1 format that quasidist writes",
    "optimal_postselection": "post-selection on a measured histogram "
                             "(Criterion 7)",
    "mean_signal": "the expected rates of perfbench/check.py",
    "to_s_ordered": "the library's ordering change, used by the acceptance "
                    "and quasidist tests and the README",
    "joint_twb": "the public twin-beam model that the README and the "
                 "acceptance tests read",
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


def test_no_argument_rule_lives_in_argparse():
    # a flag's range is the library's rule, checked once there: argparse
    # only turns text into a number, so no second rule set grows back
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    types = {(command, action.dest): action.type
             for command, parser in commands.choices.items()
             for action in parser._actions}
    assert {"simulate", "analyze", "sweep"} <= set(commands.choices)
    assert types[("simulate", "seed")] is int
    assert {key: kind for key, kind in types.items()
            if kind not in (None, int, float)} == {}


def test_main_names_each_error_class_in_a_handler():
    # each subclass of TwinbeamError has its own exit code: one that no
    # except clause of cli.main names is one that no caller tells apart;
    # cli.main has no handler for the base, so no raise may name it
    errors = Path(SRC, "twinbeam", "errors.py")
    classes = [node.name for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)
               and _identifiers(node)["TwinbeamError"]]
    assert sorted(classes) == ["DataError", "NumericError", "UsageError"]
    cli_tree = ast.parse(Path(SRC, "twinbeam", "cli.py").read_text())
    main_def = next(node for node in cli_tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "main")
    handled = Counter()
    for node in ast.walk(main_def):
        if isinstance(node, ast.ExceptHandler) and node.type:
            handled += _identifiers(node.type)
    assert [name for name in classes if not handled[name]] == []
    assert handled["MemoryError"]
    for path in Path(SRC, "twinbeam").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                assert not _identifiers(node.exc)["TwinbeamError"], \
                    f"{path.name}:{node.lineno}"


def test_only_io_turns_records_into_json():
    # io.write_json encodes a dataclass record as its fields, so no other
    # module serialises JSON or converts a record by hand
    names = ("dumps", "asdict", "is_dataclass")
    for path in Path(SRC, "twinbeam").glob("*.py"):
        tree = ast.parse(path.read_text())
        named = _identifiers(tree) + Counter(
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names)
        found = [name for name in names if named[name]]
        assert found == (["dumps", "asdict"] if path.name == "io.py"
                         else []), path.name


def test_memory_error_exits_4_without_traceback(tmp_path, capsys,
                                                monkeypatch, nominal):
    stream = sample_stream(*nominal, PumpCorrelation(0.0, 100), 2_000, seed=8)
    hist = str(tmp_path / "h.jhist")
    tbio.write_jhist(group_histogram(stream, 5, "disjoint"),
                     hist)

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr("twinbeam.cli.ml_joint", exhausted)
    out = tmp_path / "p.jdist"
    assert main(["reconstruct", "--hist", hist, "--eta-s", "0.282",
                 "--eta-i", "0.33", "--out", str(out)]) == 4
    assert capsys.readouterr().err == \
        "numeric error: out of memory (Unable to allocate 74.5 GiB)\n"
    assert not out.exists()


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


@pytest.mark.parametrize("n, mode", [(10, "sliding"), (100, "disjoint")])
def test_analyze_keeps_no_wide_running_sums(tmp_path, monkeypatch, n, mode):
    # the group sums of a chunk are one byte a window for n = 10, and
    # bincount takes an intp copy of them, 8 bytes; int64 running sums and
    # differences kept from chunk to chunk would add 16 bytes a window more
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
    out = str(tmp_path / "s.clicks")
    assert main(["simulate", "--windows", str(2 * CHUNK + 5), "--seed", "3",
                 "--k-pump", "0.000965", "--out", out]) == 0
    tracemalloc.start()
    try:
        assert main(["analyze", "--in", out, "--group-n", str(n), "--mode",
                     mode, "--out", out + ".jhist"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * CHUNK, peak / 2**20


#: Bytes of one int64 table of 1001^2 cells, a histogram at n = 1000.
TABLE_1000 = 8 * 1001 ** 2


def test_jhist_reader_holds_no_second_table(tmp_path):
    # a Python int or a list slot per cell would hold as much again as the
    # int64 counts that the reader returns
    counts = np.zeros((1001, 1001), np.int64)
    counts[:40, :40] = np.random.default_rng(5).integers(0, 10 ** 6, (40, 40))
    path = str(tmp_path / "h.jhist")
    tbio.write_jhist(JointHistogram(counts, "sliding"), path)
    tracemalloc.start()
    try:
        back = tbio.read_jhist(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.counts, counts)
    assert peak < 2 * TABLE_1000, peak / 2**20


def test_analyze_holds_no_float_copy_of_the_histogram(tmp_path, monkeypatch):
    # the efficiencies need order-1 moments, integer sums of the counts: a
    # float64 table of the frequencies would double the memory at n = 1000
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
    out = str(tmp_path / "s.clicks")
    assert main(["simulate", "--windows", str(2 * CHUNK + 5), "--seed", "3",
                 "--k-pump", "0.000965", "--out", out]) == 0
    tracemalloc.start()
    try:
        assert main(["analyze", "--in", out, "--group-n", "1000",
                     "--out", out + ".jhist"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the counts, and the grouping's buffers of a chunk (5.6 MB at n = 1000)
    assert peak < TABLE_1000 + 7 * 2**20, peak / 2**20


def test_bad_code_in_the_last_chunk_exits_3_without_output(tmp_path, capsys):
    codes = np.zeros(2 * CHUNK + 9, np.uint8)
    codes[-1] = 4
    clicks = str(tmp_path / "late.clicks")
    Path(clicks).write_bytes(clicks_bytes(codes))
    for argv, out in ((["analyze", "--in", clicks, "--group-n", "5"],
                       tmp_path / "h.jhist"),
                      (["metrology", "--in", clicks, "--group-n", "5",
                        "--nm", "10"], tmp_path / "m.json")):
        assert main(argv + ["--out", str(out)]) == 3
        assert "window code 4 above 3" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("case", BAD_STREAMS.values(), ids=BAD_STREAMS.keys())
@pytest.mark.parametrize("consume", [
    lambda stream: group_histogram(stream, 2),
    lambda stream: precision_improvement(stream, 1, 2)],
    ids=["group_histogram", "precision_improvement"])
def test_stream_consumers_refuse_a_broken_contract(case, consume):
    stream, _, message = case
    with pytest.raises(DataError, match=message):
        consume(stream)


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
        ["sweep", "--metric", "eta-eff", "--groups", "0"], 2,
        "group size must be >= 1, got 0"),
    "sweep-eta-eff-groups-2-50": (
        ["sweep", "--metric", "eta-eff", "--groups", str(2 ** 50),
         "--out", "{tmp}/e.csv"], 4, "covariance"),
    "sweep-eta-eff-groups-2-63": (
        ["sweep", "--metric", "eta-eff", "--groups", str(2 ** 63),
         "--out", "{tmp}/e.csv"], 4, "covariance"),
    "sweep-groups-negative": (
        ["sweep", "--metric", "nrp", "--groups", "-3"], 2,
        "group size must be >= 1, got -3"),
    "sweep-k-pump-negative": (
        ["sweep", "--metric", "fano", "--groups", "2", "--k-pump", "-1"],
        2, "k must be"),
    "metrology-nm-zero": (
        ["metrology", "--in", "{clicks}", "--group-n", "5", "--nm", "0",
         "--out", "{tmp}/m.json"], 2, "n_m must be >= 1, got 0"),
    "metrology-nm-negative": (
        ["metrology", "--in", "{clicks}", "--group-n", "5", "--nm", "-5",
         "--out", "{tmp}/m.json"], 2, "n_m must be >= 1, got -5"),
    "metrology-reference-without-spread": (
        ["metrology", "--in", "{clicks_both}", "--group-n", "2", "--nm", "10",
         "--out", "{tmp}/m.json"], 3, "reference_i has zero spread"),
    "quasidist-grid-too-large": (
        ["quasidist", "--dist", "{jdist}", "--s", "0", "--steps", "100000",
         "--out", "{tmp}/g.igrid"], 2, "pass a smaller --steps"),
    "analyze-group-n-far-below-one": (
        ["analyze", "--in", "{clicks}", "--group-n", "-10000",
         "--out", "{tmp}/h2.jhist"], 2, "group size must be >= 1, got -10000"),
    "analyze-histogram-too-large": (
        ["analyze", "--in", "{clicks}", "--group-n", "100000",
         "--mode", "disjoint", "--out", "{tmp}/h2.jhist"], 2,
        "pass a smaller --group-n"),
    "quasidist-steps-zero": (
        ["quasidist", "--dist", "{jdist}", "--s", "0", "--steps", "0",
         "--out", "{tmp}/g.igrid"], 2, "steps must be >= 1, got 0"),
    "quasidist-photocount-jdist": (
        ["quasidist", "--dist", "{jdist_photocount}", "--s", "0",
         "--out", "{tmp}/g.igrid"], 3, "kind"),
    "ncd-photocount-jdist": (
        ["ncd", "--dist", "{jdist_photocount}", "--out", "{tmp}/r.json"],
        3, "kind"),
    "quasidist-s-nan": (
        ["quasidist", "--dist", "{jdist}", "--s=nan",
         "--out", "{tmp}/g.igrid"], 2, "must satisfy s < 1, with s^2 in "
        "double range; got nan"),
    "quasidist-s-minus-inf": (
        ["quasidist", "--dist", "{jdist}", "--s=-inf",
         "--out", "{tmp}/g.igrid"], 2, "must satisfy s < 1, with s^2 in "
        "double range; got -inf"),
    "quasidist-s-out-of-double-range": (
        ["quasidist", "--dist", "{jdist}", "--s=-1e300",
         "--out", "{tmp}/g.igrid"], 2, "double range"),
    "quasidist-w-max-negative": (
        ["quasidist", "--dist", "{jdist}", "--s", "0", "--w-max", "-1",
         "--out", "{tmp}/g.igrid"], 2,
        "w_max must be finite and > 0, got -1.0"),
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
    # refused before any row is allocated or any factorial is looped over
    "sweep-postselect-groups-2-63": (
        ["sweep", "--metric", "postselect", "--groups", str(2 ** 63),
         "--out", "{tmp}/s.csv"], 4, "> 2**53"),
    "sweep-postselect-groups-10-80": (
        ["sweep", "--metric", "postselect", "--groups", str(10 ** 80),
         "--out", "{tmp}/s.csv"], 4, "> 2**53"),
    "sweep-tau-e-groups-10-80": (
        ["sweep", "--metric", "tau-e", "--groups", str(10 ** 80),
         "--out", "{tmp}/s.csv"], 4, "click moments of 1"),
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
         "--out", "{tmp}/s.clicks"], 2, "seed must be >= 0, got -1"),
    "clicks-block-len-not-integer": (
        ["analyze", "--in", "{clicks_block_len}", "--group-n", "5",
         "--out", "{tmp}/h2.jhist"], 3,
        "bad 'pump' (block_len must be an integer, got 2.5)"),
    "clicks-code-above-3": (
        ["analyze", "--in", "{clicks_high}", "--group-n", "5",
         "--out", "{tmp}/h2.jhist"], 3, "above 3"),
    "config-not-utf8": (
        ["sweep", "--config", "{config_latin1}", "--groups", "1"],
        2, "not UTF-8"),
    "jhist-saturated": (
        ["reconstruct", "--hist", "{hist_saturated}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "--n-max"),
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
    "jhist-dims-disagree-with-group-n": (
        ["reconstruct", "--hist", "{hist_group_n_wide}", "--eta-s", "0.3",
         "--eta-i", "0.3", "--out", "{tmp}/p.jdist"], 3,
        "jhist dims [3, 3] do not fit group_n 50"),
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
    "config-line-without-equals": (
        ["sweep", "--config", "{config_no_equals}"], 2,
        "config line without '=': 'groups 1,2'"),
    "config-without-path": (["sweep", "--metric", "nrp", "--config"], 2,
                            "--config needs a path"),
    "sweep-groups-empty": (
        ["sweep", "--metric", "nrp", "--groups", ""], 2, "--groups: "),
    "ncd-unknown-identifier": (
        ["ncd", "--dist", "{jdist}", "--identifiers", "E001,bogus",
         "--out", "{tmp}/ncd.json"], 2, "unknown identifier 'bogus'"),
    "jhist-payload-f64": (
        ["reconstruct", "--hist", "{hist_payload}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "bad payload: 'f64'"),
    "jhist-csv-cell-not-integer": (
        ["reconstruct", "--hist", "{hist_csv_cell-not-integer}", "--eta-s",
         "0.282", "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3,
        "CSV payload"),
    "jhist-csv-row-short": (
        ["reconstruct", "--hist", "{hist_csv_row-short}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "CSV payload"),
    "jhist-csv-row-long": (
        ["reconstruct", "--hist", "{hist_csv_row-long}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "CSV payload"),
    "jhist-csv-blank-line": (
        ["reconstruct", "--hist", "{hist_csv_blank-line}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "CSV payload"),
    "jhist-csv-cell-past-int64": (
        ["reconstruct", "--hist", "{hist_csv_cell-past-int64}", "--eta-s",
         "0.282", "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3,
        "CSV payload"),
    "jhist-csv-empty": (
        ["reconstruct", "--hist", "{hist_csv_empty}", "--eta-s", "0.282",
         "--eta-i", "0.33", "--out", "{tmp}/p.jdist"], 3, "CSV payload"),
}


@pytest.fixture
def bad_input_files(tmp_path, nominal):
    params, spec_s, spec_i = nominal
    stream = sample_stream(params, spec_s, spec_i,
                           PumpCorrelation(0.0, 100), 2_000, seed=8)
    hist = str(tmp_path / "h.jhist")
    tbio.write_jhist(group_histogram(stream, 5, "disjoint"), hist)
    partial = tmp_path / "params.json"
    partial.write_text(json.dumps({"m_p": 10, "m_s": 10, "m_i": 10,
                                   "b_p": 0.01, "b_s": 0.0}))
    clicks = str(tmp_path / "s.clicks")
    tbio.write_clicks(stream, clicks)
    files = {"tmp": str(tmp_path), "hist": hist, "params": str(partial),
             "clicks": clicks}
    for key, sidecar in (("clicks_cut", "{bad"), ("clicks_list", "[1]"),
                         ("clicks_params", '{"params": {"m_p": 1}}'),
                         ("clicks_block_len",
                          '{"pump": {"k": 0.0, "block_len": 2.5}}')):
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
    for key, counts in (("hist_zero", [[0, 0], [0, 0]]),
                        ("hist_negative", [[4, -1], [2, 5]])):
        files[key] = str(tmp_path / f"{key}.jhist")
        Path(files[key]).write_bytes(jhist_bytes(np.array(counts)))
    # counts summing to 10 under a header that says 12: write_jhist derives
    # n_groups from the counts, so the header is made by hand
    files["hist_total"] = str(tmp_path / "hist_total.jhist")
    with open(files["hist_total"], "wb") as fh:
        fh.write(tbio._pack("jhist-v1", {
            "dims": [2, 2], "n_groups": 12, "group_n": 1, "mode": "disjoint",
            "payload": "csv"}) + b"4,1\n2,3")
    for key, payload in BAD_CSV.items():
        files[f"hist_csv_{key}"] = str(tmp_path / f"csv_{key}.jhist")
        Path(files[f"hist_csv_{key}"]).write_bytes(bad_csv_jhist(payload))
    # every cell of a 64-pixel histogram observed: more cells than the
    # Newton system is built for
    files["hist_crowded"] = str(tmp_path / "crowded.jhist")
    tbio.write_jhist(JointHistogram(np.ones((65, 65), dtype=int), "disjoint"),
                     files["hist_crowded"])
    # every window clicks on both arms: no reference spread to divide by
    files["clicks_both"] = str(tmp_path / "both.clicks")
    tbio.write_clicks(stream_of(np.full(1000, 0b11, dtype=np.uint8)),
                      files["clicks_both"])
    high = codes_of(stream)
    high[[3, 11]] = (7, 200)
    files["clicks_high"] = str(tmp_path / "high.clicks")
    Path(files["clicks_high"]).write_bytes(clicks_bytes(high))
    files["config_latin1"] = str(tmp_path / "latin1.cfg")
    (tmp_path / "latin1.cfg").write_bytes(b"metric = nrp  # caf\xe9\n")
    files["config_no_equals"] = str(tmp_path / "no_equals.cfg")
    (tmp_path / "no_equals.cfg").write_text("metric = nrp\ngroups 1,2\n")
    jdist = str(tmp_path / "d.jdist")
    tbio.write_jdist(window_click_dist(params, spec_s, spec_i), jdist)
    files["jdist"] = jdist
    # ten nominal beams: a 16-step grid at s = 0.5 holds 754 times their mass
    files["jdist_twb10"] = str(tmp_path / "twb10.jdist")
    tbio.write_jdist(core.joint_twb(params.scaled(10)), files["jdist_twb10"])
    # payloads of one bad cell each
    for key, cell in (("jdist_nan", np.nan), ("jdist_negative", -0.25)):
        table = window_click_dist(params, spec_s, spec_i)
        table[1, 0] = cell
        files[key] = str(tmp_path / f"{key}.jdist")
        Path(files[key]).write_bytes(jdist_bytes(table))
    # cells of 0.8: not a distribution
    files["jdist_mass"] = str(tmp_path / "mass.jdist")
    Path(files["jdist_mass"]).write_bytes(
        jdist_bytes(np.array([[0.5, 0.1], [0.1, 0.1]])))
    blob = open(jdist, "rb").read()
    header, body = unpack(blob)
    del header["dims"]
    files["jdist_no_dims"] = str(tmp_path / "no_dims.jdist")
    with open(files["jdist_no_dims"], "wb") as fh:
        fh.write(container("jdist-v1", header, body))
    hist_saturated = JointHistogram(np.array([[3, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                    "disjoint")
    files["hist_saturated"] = str(tmp_path / "saturated.jhist")
    tbio.write_jhist(hist_saturated, files["hist_saturated"])
    # headers of the right keys with values of the wrong type or range
    for key, fmt, source, change in (
            ("jdist_dims", "jdist-v1", jdist, {"dims": 5}),
            ("jdist_kind", "jdist-v1", jdist, {"kind": 3}),
            ("jdist_photocount", "jdist-v1", jdist, {"kind": "photocount"}),
            ("jdist_payload", "jdist-v1", jdist, {"payload": "csv"}),
            ("hist_dims", "jhist-v1", hist, {"dims": 5}),
            ("hist_group_n", "jhist-v1", hist, {"group_n": "2"}),
            ("hist_mode", "jhist-v1", hist, {"mode": 5}),
            ("hist_group_n_zero", "jhist-v1", hist, {"group_n": 0}),
            ("hist_group_n_wide", "jhist-v1", files["hist_saturated"],
             {"group_n": 50}),
            ("hist_payload", "jhist-v1", hist, {"payload": "f64"})):
        header, body = unpack(open(source, "rb").read())
        files[key] = str(tmp_path / key)
        with open(files[key], "wb") as fh:
            fh.write(container(fmt, {**header, **change}, body))
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
    # a refused command writes no file, output or manifest
    argv, code, fragment = BAD_INPUTS[case]
    files = set(os.listdir(bad_input_files["tmp"]))
    proc = run_python("-m", "twinbeam.cli",
                      *(arg.format(**bad_input_files) for arg in argv))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert fragment in proc.stderr
    assert set(os.listdir(bad_input_files["tmp"])) == files


#: Each command's numeric flags, after the flags it needs to run on the
#: ``bad_input_files`` (a later ``--flag=value`` overrides an earlier one).
NUMERIC_FLAGS = {
    "simulate": (["--windows", "1000", "--seed", "1",
                  "--out", "{tmp}/x.clicks"],
                 ["--windows", "--seed", "--k-pump", "--block-len"]),
    "analyze": (["--in", "{clicks}", "--group-n", "5",
                 "--out", "{tmp}/x.jhist"], ["--group-n"]),
    "reconstruct": (["--hist", "{hist}", "--eta-s", "0.282", "--eta-i", "0.33",
                     "--out", "{tmp}/x.jdist"],
                    ["--eta-s", "--eta-i", "--dark-s", "--dark-i",
                     "--max-iters", "--n-max"]),
    "quasidist": (["--dist", "{jdist}", "--s", "0", "--steps", "32",
                   "--out", "{tmp}/x.igrid"], ["--s", "--w-max", "--steps"]),
    "metrology": (["--in", "{clicks}", "--group-n", "5", "--nm", "10",
                   "--out", "{tmp}/x.json"], ["--group-n", "--nm"]),
    "sweep": (["--metric", "fano", "--groups", "1,10", "--out", "{tmp}/x.csv"],
              ["--groups", "--k-pump"]),
}
EXTREMES = ("0", "-1", "nan", "inf", "-inf", "1e18", str(2 ** 63))

#: Runs each argv list of the JSON file ``argv[1]`` through ``cli.main`` with
#: the address space capped at 1 GiB above the loaded package, and writes
#: each exit code, or the exception that escaped, to ``argv[2]``.
_EXTREME_CHILD = """
import json, os, resource, sys
from twinbeam.cli import main
pages = int(open("/proc/self/statm").read().split()[0])
limit = pages * os.sysconf("SC_PAGE_SIZE") + 2 ** 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
results = []
for argv in json.load(open(sys.argv[1])):
    try:
        results.append(main(argv))
    except SystemExit as exc:
        results.append(exc.code)
    except Exception as exc:
        results.append(repr(exc))
json.dump(results, open(sys.argv[2], "w"))
"""


def test_numeric_flags_at_extreme_values_exit_with_a_code(bad_input_files,
                                                          tmp_path):
    # every value of EXTREMES for every numeric flag, in one child process
    # under an address-space limit, so an oversized allocation is a
    # MemoryError there; simulate --windows 2^63 is left out, because it
    # draws 2^63 windows for as long as it takes
    cases = [[command, *(arg.format(**bad_input_files) for arg in base),
              f"{flag}={value}"]
             for command, (base, flags) in NUMERIC_FLAGS.items()
             for flag in flags for value in EXTREMES
             if (command, flag, value) != ("simulate", "--windows",
                                           str(2 ** 63))]
    assert len(cases) == 125
    cases_file, results_file = tmp_path / "cases.json", tmp_path / "codes.json"
    cases_file.write_text(json.dumps(cases))
    proc = run_python("-c", _EXTREME_CHILD, str(cases_file), str(results_file))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    codes = json.loads(results_file.read_text())
    bad = [(argv[0], argv[-1], code) for argv, code in zip(cases, codes)
           if code not in (0, 2, 3, 4)]
    assert bad == []


#: Library calls with a count that is not an integer or lies below its least
#: value, the one check of that count (the CLI parses its flags without
#: judging them), or a moment table too small for the quantity: (call, error
#: class, message fragment).
_STREAM = np.tile(np.arange(4, dtype=np.uint8), 250)
_TABLE = np.full((3, 3), 1 / 9)
TOO_SMALL = {
    "metrology-nm-0": (lambda nominal: precision_improvement(
        stream_of(_STREAM), 10, 0), UsageError, "n_m must be >= 1"),
    "metrology-nm--1": (lambda nominal: precision_improvement(
        stream_of(_STREAM), 10, -1), UsageError, "n_m must be >= 1"),
    "quasidist-steps-0": (lambda nominal: quasi_distribution(
        _TABLE, 0.0, steps=0), UsageError, "steps must be >= 1"),
    "quasidist-steps--1": (lambda nominal: quasi_distribution(
        _TABLE, 0.0, steps=-1), UsageError, "steps must be >= 1"),
    "quasidist-w-max-0": (lambda nominal: quasi_distribution(
        _TABLE, 0.0, 0.0), UsageError, "w_max must be finite and > 0"),
    "quasidist-w-max--1": (lambda nominal: quasi_distribution(
        _TABLE, 0.0, -1.0), UsageError, "w_max must be finite and > 0"),
    "quasidist-w-max-inf": (lambda nominal: quasi_distribution(
        _TABLE, 0.0, math.inf), UsageError, "w_max must be finite and > 0"),
    "quasidist-w-max-nan": (lambda nominal: quasi_distribution(
        _TABLE, 0.0, math.nan), UsageError, "w_max must be finite and > 0"),
    "compound-order-0": (lambda nominal: models.compound_click_moments(
        *nominal, 10, 0), UsageError, "order must be >= 1"),
    "compound-order--1": (lambda nominal: models.compound_click_moments(
        *nominal, 10, -1), UsageError, "order must be >= 1"),
    "genuine-n-0": (lambda nominal: models.genuine_click_moments(
        *nominal, 0, 2), UsageError, "group size must be >= 1"),
    "genuine-n--1": (lambda nominal: models.genuine_click_moments(
        *nominal, -1, 2), UsageError, "group size must be >= 1"),
    "genuine-order-0": (lambda nominal: models.genuine_click_moments(
        *nominal, 10, 0), UsageError, "order must be >= 1"),
    "genuine-order--1": (lambda nominal: models.genuine_click_moments(
        *nominal, 10, -1), UsageError, "order must be >= 1"),
    "fano-order-1": (lambda nominal: fano_nrp_cov(np.ones((2, 2))),
                     DataError, "needs order 2, table has 1"),
    "efficiency-order-0": (lambda nominal: effective_efficiency(
        np.ones((1, 1))), DataError, "needs order 1, table has 0"),
    "postselection-n-0": (lambda nominal: models.postselection_stats(
        *nominal, 0), UsageError, "group size must be >= 1"),
    "postselection-n--1": (lambda nominal: models.postselection_stats(
        *nominal, -1), UsageError, "group size must be >= 1"),
    "heralded-n-0": (lambda nominal: models.heralded_photon_stats(
        nominal[0], nominal[1], 0, 0), UsageError, "group size must be >= 1"),
    "metrology-n-2.5": (lambda nominal: precision_improvement(
        stream_of(_STREAM), 2.5, 10), UsageError,
        "group size must be an integer, got 2.5"),
    "metrology-nm-2.5": (lambda nominal: precision_improvement(
        stream_of(_STREAM), 10, 2.5), UsageError,
        "n_m must be an integer, got 2.5"),
    "quasidist-steps-2.5": (lambda nominal: quasi_distribution(
        _TABLE, 0.0, steps=2.5), UsageError,
        "steps must be an integer, got 2.5"),
    "compound-n-2.5": (lambda nominal: models.compound_click_moments(
        *nominal, 2.5, 2), UsageError,
        "group size must be an integer, got 2.5"),
    "pixels-2.5": (lambda nominal: detection.DetectorSpec(0.5, 0.0, 2.5),
                   UsageError, "pixels must be an integer, got 2.5"),
    "heralded-c_s-2.5": (lambda nominal: models.heralded_photon_stats(
        nominal[0], nominal[1], 2.5, 5), UsageError,
        "need an integer 0 <= c_s <= 5, got 2.5"),
    "heralded-c_s-6": (lambda nominal: models.heralded_photon_stats(
        nominal[0], nominal[1], 6, 5), UsageError,
        "need an integer 0 <= c_s <= 5, got 6"),
    "block-len-2.5": (lambda nominal: PumpCorrelation(1e-4, 2.5), UsageError,
                      "block_len must be an integer, got 2.5"),
    "block-len-0": (lambda nominal: PumpCorrelation(1e-4, 0), UsageError,
                    "block_len must be >= 1, got 0"),
    "n-windows-2.5": (lambda nominal: sample_stream(
        *nominal, PumpCorrelation(), 2.5, 1), UsageError,
        "n_windows must be an integer, got 2.5"),
    "n-windows-0": (lambda nominal: sample_stream(
        *nominal, PumpCorrelation(), 0, 1), UsageError,
        "n_windows must be >= 1, got 0"),
    "moments-order-2.5": (lambda nominal: moments(_TABLE, 2.5), UsageError,
                          "order must be an integer, got 2.5"),
    "ml-joint-max-steps-2.5": (lambda nominal: ml_joint(
        _TABLE, np.eye(3), np.eye(3), 2.5), UsageError,
        "max_steps must be an integer, got 2.5"),
    "detection-matrix-n-max-2.5": (lambda nominal: detection.detection_matrix(
        nominal[1], 2.5), UsageError, "n_max must be an integer, got 2.5"),
    "click-factorials-n-max-2.5": (
        lambda nominal: detection.click_factorials(nominal[1], 2.5, 2),
        UsageError, "n_max must be an integer, got 2.5"),
    "click-factorials-order-2.5": (
        lambda nominal: detection.click_factorials(nominal[1], 2, 2.5),
        UsageError, "order must be an integer, got 2.5"),
    "compound-order-2.5": (lambda nominal: models.compound_click_moments(
        *nominal, 10, 2.5), UsageError, "order must be an integer, got 2.5"),
    "genuine-order-2.5": (lambda nominal: models.genuine_click_moments(
        *nominal, 10, 2.5), UsageError, "order must be an integer, got 2.5"),
    "mandel-rice-n-max-2.5": (lambda nominal: core.mandel_rice(1, 0.1, 2.5),
                              UsageError, "n_max must be an integer, got 2.5"),
    "seed--1": (lambda nominal: sample_stream(
        *nominal, PumpCorrelation(), 10, -1), UsageError,
        "seed must be >= 0, got -1"),
    "seed-2.5": (lambda nominal: sample_stream(
        *nominal, PumpCorrelation(), 10, 2.5), UsageError,
        "seed must be an integer, got 2.5"),
}


@pytest.mark.parametrize("case", TOO_SMALL.values(), ids=TOO_SMALL.keys())
def test_library_refuses_too_small_arguments(nominal, case):
    call, error, message = case
    with pytest.raises(error, match=message):
        call(nominal)

