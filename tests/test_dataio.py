import re

import numpy as np
import pytest

import subspace_glr as sg
from _utils import make_instance, rand_unit


@pytest.fixture
def data():
    _, _, data = make_instance(seed=50, L=3, N=7)
    return data


class TestSnapshotCsv:
    def test_round_trip_exact(self, data, tmp_path):
        path = tmp_path / "snap.csv"
        sg.write_snapshot_csv(path, data)
        back = sg.read_snapshots(path)
        # repr() serialization keeps every bit of the doubles
        assert np.array_equal(back.y_s, data.y_s)
        assert np.array_equal(back.y_r, data.y_r)

    def test_row_order_is_immaterial(self, data, tmp_path):
        path = tmp_path / "snap.csv"
        sg.write_snapshot_csv(path, data)
        lines = path.read_text().splitlines()
        shuffled = [lines[0]] + lines[1:][::-1]
        path.write_text("\n".join(shuffled) + "\n")
        back = sg.read_snapshots(path)
        assert np.array_equal(back.y_s, data.y_s)
        assert np.array_equal(back.y_r, data.y_r)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            sg.read_snapshot_csv(path)

    def test_rejects_unknown_channel(self, data, tmp_path):
        path = tmp_path / "snap.csv"
        sg.write_snapshot_csv(path, data)
        text = path.read_text().replace("\ns,0,", "\nx,0,", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="channel"):
            sg.read_snapshot_csv(path)

    def test_rejects_shape_mismatch(self, data, tmp_path):
        path = tmp_path / "snap.csv"
        sg.write_snapshot_csv(path, data)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one r row
        with pytest.raises(ValueError, match="shape"):
            sg.read_snapshot_csv(path)


    @pytest.mark.parametrize("old, new, needle", [
        ("s,1,", "s,0,", "snap.csv:3: channel 's' repeats sensor 0"),  # and sensor 1 is missing
        ("r,2,", "r,3,", "snap.csv: channel 'r' sensors must be 0..2"),
        ("r,0,", "r,-1,", "snap.csv: channel 'r' sensors must be 0..2"),
        ("s,1,", "s,1.0,", "snap.csv:3: invalid literal for int()"),
    ], ids=["repeated", "gap", "negative", "non-integer"])
    def test_rejects_bad_sensor_column(self, data, tmp_path, old, new, needle):
        # each channel's sensors must be 0..L-1, each once
        path = tmp_path / "snap.csv"
        sg.write_snapshot_csv(path, data)
        path.write_text(path.read_text().replace("\n" + old, "\n" + new, 1))
        with pytest.raises(ValueError, match=re.escape(needle)):
            sg.read_snapshot_csv(path)


class TestSnapshotBinary:
    def test_round_trip_single_precision(self, data, tmp_path):
        path = tmp_path / "snap.bin"
        sg.write_snapshot_bin(path, data)
        back = sg.read_snapshots(path)
        assert np.array_equal(back.y_s, data.y_s.astype(np.complex64))
        assert np.array_equal(back.y_r, data.y_r.astype(np.complex64))

    def test_layout_is_fixed(self, data, tmp_path):
        path = tmp_path / "snap.bin"
        sg.write_snapshot_bin(path, data)
        raw = path.read_bytes()
        sensors, snaps = data.y_s.shape
        assert raw[:8] == b"SGLRSNP1"
        assert int.from_bytes(raw[8:12], "little") == sensors
        assert int.from_bytes(raw[12:16], "little") == snaps
        assert len(raw) == 16 + 16 * sensors * snaps

    def test_rejects_truncation(self, data, tmp_path):
        path = tmp_path / "snap.bin"
        sg.write_snapshot_bin(path, data)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError, match="bytes"):
            sg.read_snapshot_bin(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            sg.read_snapshot_bin(path)

    def test_sniffer_picks_format(self, data, tmp_path):
        csv_path = tmp_path / "a.csv"
        bin_path = tmp_path / "a.bin"
        sg.write_snapshot_csv(csv_path, data)
        sg.write_snapshot_bin(bin_path, data)
        assert np.array_equal(sg.read_snapshots(csv_path).y_s, data.y_s)
        assert np.array_equal(
            sg.read_snapshots(bin_path).y_s, data.y_s.astype(np.complex64)
        )


class TestSteeringCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        pair = sg.SteeringPair(rand_unit(rng, 4), rand_unit(rng, 4))
        path = tmp_path / "steer.csv"
        sg.write_steering_csv(path, pair)
        back = sg.read_steering_csv(path)
        assert np.allclose(back.u_s, pair.u_s, atol=1e-15)
        assert np.allclose(back.u_r, pair.u_r, atol=1e-15)

    def test_renormalizes_nearly_unit_vectors(self, tmp_path):
        # within 1e-6 of unit norm is accepted and divided by its norm
        scale = 1.0 + 5e-7
        path = tmp_path / "steer.csv"
        rows = ["channel,sensor,re,im", f"s,0,{0.6 * scale!r},0.0", f"s,1,0.0,{0.8 * scale!r}",
                f"r,0,0.0,{-scale!r}", "r,1,0.0,0.0"]
        path.write_text("\n".join(rows) + "\n")
        back = sg.read_steering_csv(path)
        for u, want in ((back.u_s, [0.6, 0.8j]), (back.u_r, [-1j, 0.0])):
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(u, want, rtol=0.0, atol=1e-15)

    def test_rejects_off_norm_vector(self, tmp_path):
        path = tmp_path / "steer.csv"
        rows = ["channel,sensor,re,im"]
        rows += [f"s,{i},{v},0.0" for i, v in enumerate([0.9, 0.0])]
        rows += [f"r,{i},{v},0.0" for i, v in enumerate([1.0, 0.0])]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="u_s"):
            sg.read_steering_csv(path)

    def test_rejects_missing_channel(self, tmp_path):
        path = tmp_path / "steer.csv"
        path.write_text("channel,sensor,re,im\ns,0,1.0,0.0\n")
        with pytest.raises(ValueError, match="missing channel"):
            sg.read_steering_csv(path)

    @pytest.mark.parametrize("row, new, needle", [
        (1, "s,0,0.0,1.0", "steer.csv:3: channel 's' repeats sensor 0"),  # and sensor 1 is missing
        (1, "s,2,0.0,0.0", "steer.csv: channel 's' sensors must be 0..1"),
        (1, "s,one,0.0,0.0", "steer.csv:3: invalid literal for int()"),
        (0, "s,0,nan,0.0", "steer.csv:2: non-finite value in channel 's', sensor 0"),
        (3, "r,1,0.0,inf", "steer.csv:5: non-finite value in channel 'r', sensor 1"),
    ], ids=["repeated", "gap", "non-integer", "nan", "inf"])
    def test_rejects_bad_rows(self, tmp_path, row, new, needle):
        rows = ["s,0,1.0,0.0", "s,1,0.0,0.0", "r,0,1.0,0.0", "r,1,0.0,0.0"]
        rows[row] = new
        path = tmp_path / "steer.csv"
        path.write_text("\n".join(["channel,sensor,re,im"] + rows) + "\n")
        with pytest.raises(ValueError, match=re.escape(needle)):
            sg.read_steering_csv(path)
