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

Every CSV row must hold the same number of snapshots; a row without
values or with a different count is rejected with its file and line.
Both readers reject a NaN or infinite entry with a ValueError that names the
file, the channel, the sensor and the snapshot index.

Steering files are CSV with header "channel,sensor,re,im" and one row per
sensor per channel. Vectors are validated to be within 1e-6 of unit norm
and renormalized exactly on load; a NaN or infinite entry is rejected with
the file, line, channel and sensor.

In both CSV formats the rows may come in any order, but each channel's
sensor column must hold the integers 0..L-1, each exactly once.
"""

from __future__ import annotations

import csv
import math
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


def _read_channels(path: str | Path, header: list[str], kind: str) -> dict[str, list]:
    """Rows of a two-channel CSV whose header starts with header, per channel
    and ordered by sensor, as ("file:line", values) pairs."""
    rows: dict[str, dict] = {"s": {}, "r": {}}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[: len(header)] != header:
            raise ValueError(f"{path}: not a {kind} CSV (bad header)")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{line_no}"
            tag = row[0]
            if tag not in rows:
                raise ValueError(f"{where}: channel must be 's' or 'r', got {tag!r}")
            try:  # a row without a sensor column reads its sensor as ""
                sensor, vals = int((row + [""])[1]), [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if sensor in rows[tag]:
                raise ValueError(f"{where}: channel {tag!r} repeats sensor {sensor}")
            rows[tag][sensor] = (where, vals)
    for tag, by_sensor in rows.items():
        if not by_sensor:
            raise ValueError(f"{path}: missing channel {tag!r} rows")
        if sorted(by_sensor) != list(range(len(by_sensor))):
            raise ValueError(
                f"{path}: channel {tag!r} sensors must be 0..{len(by_sensor) - 1}, each once,"
                f" got {sorted(by_sensor)}"
            )
    return {tag: [row for _, row in sorted(by_sensor.items())] for tag, by_sensor in rows.items()}


def read_snapshot_csv(path: str | Path) -> SnapshotData:
    channels = {}
    first = None  # (where, snapshot count) of the first row, which every row must match
    for tag, rows in _read_channels(path, ["channel", "sensor"], "snapshot").items():
        y = []
        for sensor, (where, vals) in enumerate(rows):
            if not vals:
                raise ValueError(f"{where}: no snapshot values")
            if len(vals) % 2 != 0:
                raise ValueError(f"{where}: odd number of value columns")
            first = first or (where, len(vals) // 2)
            if len(vals) // 2 != first[1]:
                raise ValueError(f"{where}: {len(vals) // 2} snapshots, but {first[0]} has {first[1]}")
            finite = np.isfinite(np.reshape(vals, (1, -1, 2))).all(axis=2)
            _check_finite(where, tag, [sensor], finite)
            y.append(np.asarray(vals[0::2]) + 1j * np.asarray(vals[1::2]))
        channels[tag] = np.vstack(y)
    y_s, y_r = channels["s"], channels["r"]
    if y_s.shape != y_r.shape:
        raise ValueError(f"{path}: channel shapes differ: {y_s.shape} vs {y_r.shape}")
    return SnapshotData(y_s, y_r)


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
    return SnapshotData(channels["s"], channels["r"])


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
    vectors = {}
    for tag, rows in _read_channels(path, ["channel", "sensor", "re", "im"], "steering").items():
        for sensor, (where, vals) in enumerate(rows):
            if len(vals) != 2:
                raise ValueError(f"{where}: expected re and im, got {len(vals)} values")
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"{where}: non-finite value in channel {tag!r}, sensor {sensor}")
        vectors[tag] = np.asarray([re + 1j * im for _, (re, im) in rows])
    for tag, u in vectors.items():
        norm = np.linalg.norm(u)
        err = abs(norm - 1.0)
        if err > 1e-6:
            raise ValueError(
                f"{path}: steering vector u_{tag} is not unit norm (|norm - 1| = {err:.3e})"
            )
        vectors[tag] = u / norm
    return SteeringPair(vectors["s"], vectors["r"])
