"""On-disk formats for streams, distributions, histograms and grids.

``clicks-v1`` is a fixed binary layout: a 16-byte magic/version field, the
window count as little-endian u64, one byte per window (bit 0 the signal
click, bit 1 the idler click) and a JSON sidecar ``<path>.json`` carrying
the generation metadata.  Streams are written and read one chunk at a time
as ``ClickStream.chunks()`` yields and checks them, so memory stays flat.

The other formats share one container: an 8-byte magic, a little-endian u32
header length, a JSON header and a payload, declared in the header: raw
little-endian float64 (row-major) for jdist and igrid, CSV text of integers
for jhist, parsed by numpy.  All writers are atomic (temporary file plus
rename) and all readers round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct
import tempfile

import numpy as np

from .core import TwbParams
from .detection import DetectorSpec
from .errors import DataError, TwinbeamError
from .ingest import DISJOINT, SLIDING, JointHistogram
from .quasidist import IntensityGrid
from .simulate import CHUNK, ClickStream, PumpCorrelation

CLICKS_MAGIC = b"twinbeam-clicks1"
MAGIC = {
    "jdist-v1": b"TWBJDIS1",
    "jhist-v1": b"TWBJHIS1",
    "igrid-v1": b"TWBIGRD1",
}

#: A jdist's cells must sum to 1 this closely.
MASS_TOL = 1e-6


def _is_int(v, low: float = -math.inf) -> bool:
    return type(v) is int and v >= low


def _is_finite(v) -> bool:
    return type(v) in (int, float) and abs(v) < math.inf


def _is_dims(v) -> bool:
    return type(v) is list and len(v) == 2 and all(_is_int(d, 0) for d in v)


#: Header keys each container needs, and the test each value passes (for
#: jhist, ``group_histogram``'s rules): any other value is a data error,
#: whether it is written or read.
HEADER_RULES = {
    "jdist-v1": {"dims": _is_dims, "kind": lambda v: v == "photon",
                 "payload": lambda v: v == "f64"},
    "jhist-v1": {"dims": _is_dims, "n_groups": _is_int,
                 "group_n": lambda v: _is_int(v, 1),
                 "mode": lambda v: v in (SLIDING, DISJOINT),
                 "payload": lambda v: v == "csv"},
    "igrid-v1": {"dims": _is_dims, "w_max_s": _is_finite,
                 "w_max_i": _is_finite, "s": _is_finite,
                 "payload": lambda v: v == "f64"},
}


def _atomic_write(path: str, chunks) -> None:
    """Write ``chunks`` (bytes-like, as they come) to ``path``, atomically."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pack(fmt: str, header: dict) -> bytes:
    """A container's magic, header length and header: the payload follows."""
    head = json.dumps(header, sort_keys=True).encode()
    _header(fmt, head)              # refuse what a reader would refuse
    return MAGIC[fmt] + struct.pack("<I", len(head)) + head


def _json_object(text: bytes, what: str, keys: tuple = ()) -> dict:
    """Parse ``text`` as a JSON object that holds at least ``keys``."""
    try:
        obj = json.loads(text.decode())
    except ValueError as exc:
        raise DataError(f"{what} is not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DataError(f"{what} lacks the keys {', '.join(missing)}")
    return obj


def _header(fmt: str, text: bytes) -> dict:
    """The ``fmt`` header that ``text`` encodes, if it keeps the format's rules."""
    rules = HEADER_RULES[fmt]
    header = _json_object(text, f"{fmt} header", tuple(rules))
    for key, ok in rules.items():
        if not ok(header[key]):
            raise DataError(f"{fmt} header has a bad {key}: {header[key]!r}")
    if fmt == "jhist-v1":
        side = header["group_n"] + 1        # 0..n clicks on either arm
        if header["dims"] != [side, side]:
            raise DataError(f"jhist dims {header['dims']} do not fit group_n "
                            f"{header['group_n']}: need [{side}, {side}]")
    return header


def _read_container(fmt: str, path: str) -> tuple[dict, bytes | np.ndarray]:
    """The header and payload of the ``fmt`` container at ``path``, read
    once: CSV bytes, or an f64 table of the header's dims, sized first."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(12)
        if prefix[:8] != MAGIC[fmt]:
            raise DataError(f"not a {fmt} file")
        hlen = int.from_bytes(prefix[8:], "little")
        if len(prefix) < 12 or 12 + hlen > size:
            raise DataError(f"{fmt} header runs past the {size}-byte file")
        header = _header(fmt, fh.read(hlen))
        if header["payload"] == "csv":
            return header, fh.read()
        shape, body = tuple(header["dims"]), size - 12 - hlen
        if body != 8 * math.prod(shape):
            raise DataError(f"f64 payload of {body} bytes does not hold "
                            f"a {'x'.join(map(str, shape))} table")
        table = np.empty(shape, "<f8")
        fh.readinto(table)
        return header, table


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# -- clicks-v1 ---------------------------------------------------------------

def write_clicks(stream: ClickStream, path: str) -> None:
    """Write ``stream`` to ``path`` chunk by chunk, and its sidecar."""
    header = CLICKS_MAGIC + struct.pack("<Q", len(stream))
    _atomic_write(path, itertools.chain([header], stream.chunks()))
    write_json(dict(stream.meta, format="clicks-v1"), path + ".json")


def read_clicks(path: str) -> ClickStream:
    """The stream of a clicks-v1 file, read ``CHUNK`` windows at a time.

    The header, the payload size and the sidecar are checked here, and the
    codes and their count by ``ClickStream.chunks()`` as they are read.
    """
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) < 24 or head[:16] != CLICKS_MAGIC:
            raise DataError("not a clicks-v1 file")
        (count,) = struct.unpack("<Q", head[16:])
        payload = os.fstat(fh.fileno()).st_size - 24
    if payload < count:
        raise DataError(f"truncated stream: it declares {count} windows "
                        f"and holds {payload}")

    def chunks():
        with open(path, "rb") as fh:
            fh.seek(24)                             # trailing bytes stay unread
            for start in range(0, count, CHUNK):
                codes = np.empty(min(CHUNK, count - start), dtype=np.uint8)
                yield codes[:fh.readinto(codes)]

    meta = {}
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        meta = _json_object(_read(sidecar), sidecar)
        for key, cls in (("params", TwbParams), ("spec_s", DetectorSpec),
                         ("spec_i", DetectorSpec), ("pump", PumpCorrelation)):
            if isinstance(meta.get(key), dict):
                try:
                    meta[key] = cls(**meta[key])
                except (TypeError, TwinbeamError) as exc:
                    raise DataError(f"{sidecar}: bad {key!r} ({exc})") from None
    return ClickStream(count, chunks, meta)


# -- jdist-v1 ----------------------------------------------------------------

def _photon_table(table: np.ndarray) -> np.ndarray:
    """``table``, if its cells are finite, >= 0 and sum to 1."""
    if not ((table >= 0) & (table < math.inf)).all():
        raise DataError("jdist cells must be finite and >= 0")
    mass = float(table.sum())
    if abs(mass - 1.0) > MASS_TOL:
        raise DataError(f"jdist cells sum to {mass:.9g}, not 1")
    return table


def write_jdist(table: np.ndarray, path: str) -> None:
    header = {"dims": list(table.shape), "kind": "photon", "payload": "f64"}
    cells = np.ascontiguousarray(table, dtype="<f8")
    prefix = _pack("jdist-v1", header)      # header, then cells,
    _photon_table(cells)                    # as on reading
    _atomic_write(path, [prefix, cells])


def read_jdist(path: str) -> np.ndarray:
    return _photon_table(_read_container("jdist-v1", path)[1])


# -- jhist-v1 ----------------------------------------------------------------

def _counts(counts: np.ndarray, n_groups: int) -> np.ndarray:
    """``counts``, if they are nonnegative and sum to ``n_groups`` > 0."""
    total = int(counts.sum())
    if counts.min(initial=0) < 0 or total < 1 or total != n_groups:
        raise DataError("jhist counts must be nonnegative and sum to n_groups "
                        f"= {n_groups} > 0; they sum to {total}")
    return counts


def write_jhist(h: JointHistogram, path: str) -> None:
    header = {"dims": list(h.counts.shape), "n_groups": h.n_groups,
              "group_n": h.counts.shape[0] - 1, "mode": h.mode,
              "payload": "csv"}
    body = "\n".join(",".join(map(str, row.tolist()))
                     for row in h.counts).encode()
    prefix = _pack("jhist-v1", header)      # header, then counts,
    _counts(h.counts, h.n_groups)           # as on reading
    _atomic_write(path, [prefix, body])


def read_jhist(path: str) -> JointHistogram:
    """The histogram of a jhist file.  numpy parses its CSV payload once the
    lines are counted, as ``np.loadtxt`` would skip a blank one."""
    header, body = _read_container("jhist-v1", path)
    shape = tuple(header["dims"])
    try:
        lines = body.decode().splitlines()
        counts = np.loadtxt(lines, np.int64, comments=None, delimiter=",",
                            ndmin=2) if len(lines) == shape[0] else None
    except ValueError as exc:
        raise DataError(f"unreadable CSV payload ({exc})") from None
    if counts is None or counts.shape != shape:
        raise DataError(f"CSV payload is not a {shape[0]}x{shape[1]} table")
    return JointHistogram(_counts(counts, header["n_groups"]), header["mode"])


# -- igrid-v1 ----------------------------------------------------------------

def write_igrid(g: IntensityGrid, path: str) -> None:
    header = {"dims": list(g.values.shape), "w_max_s": g.w_max_s,
              "w_max_i": g.w_max_i, "s": g.s, "payload": "f64"}
    _atomic_write(path, [_pack("igrid-v1", header),
                         np.ascontiguousarray(g.values, dtype="<f8")])


def read_igrid(path: str) -> IntensityGrid:
    header, values = _read_container("igrid-v1", path)
    return IntensityGrid(values, header["w_max_s"], header["w_max_i"],
                         header["s"])


def write_json(obj, path: str) -> None:
    """Write ``obj`` as JSON, each dataclass record in it as its fields."""
    _atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True,
                                    default=dataclasses.asdict).encode()])
