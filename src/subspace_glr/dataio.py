"""Snapshot and steering file formats.

Two snapshot interchange formats are supported:

CSV (portable, double precision). Header row "channel,sensor" followed by
2N columns holding interleaved real and imaginary parts (re0, im0, re1,
im1, ...). One row per sensor, surveillance channel rows first:

    channel,sensor,re0,im0,re1,im1,...
    s,0,...
    r,0,...

Binary (compact, single precision). Little-endian regardless of host:

    offset  size  field
    0       8     magic "SGLRSNP1"
    8       4     uint32 L (sensors per channel)
    12      4     uint32 N (snapshots)
    16      8LN   Y_s, row-major complex64 (float32 re, float32 im pairs)
    16+8LN  8LN   Y_r, same layout

Both readers reject a NaN or infinite entry with a ValueError that names the
file, the channel, the sensor and the snapshot index.

Steering files are CSV with header "channel,sensor,re,im" and one row per
sensor per channel. Vectors are validated to be within 1e-6 of unit norm
and renormalized exactly on load.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .model import SnapshotData, SteeringPair

MAGIC = b"SGLRSNP1"


def _check_finite(where: str, tag: str, sensors, finite: np.ndarray) -> None:
    """Reject the first False of a (sensor rows, N) finiteness mask of one channel."""
    bad = np.argwhere(~finite)
    if bad.size:
        row, snapshot = bad[0]
        raise ValueError(
            f"{where}: non-finite value in channel {tag!r}, sensor {sensors[row]}, snapshot {snapshot}"
        )


def write_snapshot_csv(path: str | Path, data: SnapshotData) -> None:
    y_s, y_r = data.y_s, data.y_r
    n = y_s.shape[1]
    header = ["channel", "sensor"]
    for k in range(n):
        header += [f"re{k}", f"im{k}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for tag, mat in (("s", y_s), ("r", y_r)):
            for i in range(mat.shape[0]):
                row: list[str] = [tag, str(i)]
                for v in mat[i]:
                    row += [repr(float(v.real)), repr(float(v.imag))]
                writer.writerow(row)


def read_snapshot_csv(path: str | Path) -> SnapshotData:
    rows = {"s": [], "r": []}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["channel", "sensor"]:
            raise ValueError(f"{path}: not a snapshot CSV (bad header)")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            tag = row[0]
            if tag not in rows:
                raise ValueError(f"{path}:{line_no}: channel must be 's' or 'r', got {tag!r}")
            vals = [float(v) for v in row[2:]]
            if len(vals) % 2 != 0:
                raise ValueError(f"{path}:{line_no}: odd number of value columns")
            finite = np.isfinite(np.reshape(vals, (1, -1, 2))).all(axis=2)
            _check_finite(f"{path}:{line_no}", tag, [row[1]], finite)
            arr = np.asarray(vals[0::2]) + 1j * np.asarray(vals[1::2])
            rows[tag].append((int(row[1]), arr))
    for tag in ("s", "r"):
        if not rows[tag]:
            raise ValueError(f"{path}: missing channel {tag!r} rows")
        rows[tag].sort(key=lambda item: item[0])
    y_s = np.vstack([arr for _, arr in rows["s"]])
    y_r = np.vstack([arr for _, arr in rows["r"]])
    if y_s.shape != y_r.shape:
        raise ValueError(f"{path}: channel shapes differ: {y_s.shape} vs {y_r.shape}")
    return SnapshotData(y_s, y_r, "unknown")


def write_snapshot_bin(path: str | Path, data: SnapshotData) -> None:
    sensors, snaps = data.y_s.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", sensors, snaps))
        fh.write(np.ascontiguousarray(data.y_s, dtype="<c8").tobytes())
        fh.write(np.ascontiguousarray(data.y_r, dtype="<c8").tobytes())


def read_snapshot_bin(path: str | Path) -> SnapshotData:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a snapshot binary (bad magic)")
    sensors, snaps = struct.unpack("<II", raw[8:16])
    want = 16 + 2 * 8 * sensors * snaps
    if len(raw) != want:
        raise ValueError(f"{path}: expected {want} bytes for L={sensors}, N={snaps}, got {len(raw)}")
    block = 8 * sensors * snaps
    channels = {}
    for k, tag in enumerate("sr"):
        y = np.frombuffer(raw, dtype="<c8", count=sensors * snaps, offset=16 + k * block)
        channels[tag] = y.reshape(sensors, snaps).astype(complex)
        _check_finite(str(path), tag, range(sensors), np.isfinite(channels[tag]))
    return SnapshotData(channels["s"], channels["r"], "unknown")


def read_snapshots(path: str | Path) -> SnapshotData:
    """Load snapshots, sniffing the format from the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == MAGIC:
        return read_snapshot_bin(path)
    return read_snapshot_csv(path)


def write_steering_csv(path: str | Path, steering: SteeringPair) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "sensor", "re", "im"])
        for tag, u in (("s", steering.u_s), ("r", steering.u_r)):
            for i, v in enumerate(u):
                writer.writerow([tag, str(i), repr(float(v.real)), repr(float(v.imag))])


def read_steering_csv(path: str | Path) -> SteeringPair:
    rows = {"s": [], "r": []}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["channel", "sensor", "re", "im"]:
            raise ValueError(f"{path}: not a steering CSV (bad header)")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            tag = row[0]
            if tag not in rows:
                raise ValueError(f"{path}:{line_no}: channel must be 's' or 'r', got {tag!r}")
            rows[tag].append((int(row[1]), float(row[2]) + 1j * float(row[3])))
    vectors = {}
    for tag in ("s", "r"):
        if not rows[tag]:
            raise ValueError(f"{path}: missing channel {tag!r} rows")
        rows[tag].sort(key=lambda item: item[0])
        vectors[tag] = np.asarray([v for _, v in rows[tag]])
    for tag, u in vectors.items():
        err = abs(np.linalg.norm(u) - 1.0)
        if err > 1e-6:
            raise ValueError(
                f"{path}: steering vector u_{tag} is not unit norm (|norm - 1| = {err:.3e})"
            )
    return SteeringPair.normalized(vectors["s"], vectors["r"])
