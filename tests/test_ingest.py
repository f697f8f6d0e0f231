"""Tests for CSV loading, gap repair, resampling, and windowing."""

import numpy as np
import pytest

from latentfuse import ingest
from latentfuse.errors import DataError, UsageError

from helpers import enumerate_windows


def write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_stream_basic(tmp_path):
    p = write(tmp_path / "s.csv",
              "timestamp,ecg,eda\n0.0,1.0,10\n0.5,2.0,\n1.0,3.0,30\n1.5,4.0,40\n")
    stream = ingest.load_stream(p, {"ecg": "ECG", "eda": "EDA"})
    assert set(stream.channels) == {"ECG", "EDA"}
    ecg = stream.channels["ECG"]
    assert ecg.rate_hz == pytest.approx(2.0)
    assert np.array_equal(ecg.values, [1.0, 2.0, 3.0, 4.0])
    assert not ecg.missing.any()
    eda = stream.channels["EDA"]
    assert eda.missing.tolist() == [False, True, False, False]


def test_load_stream_inline_labels(tmp_path):
    p = write(tmp_path / "s.csv",
              "timestamp,v,label\n0,1,0\n1,2,\n2,3,1\n3,4,1\n4,5,0\n")
    stream = ingest.load_stream(p, {"v": "ECG", "label": "label"})
    assert stream.labels == [(0, 0), (2, 1), (4, 0)]
    assert "label" not in stream.channels


def test_load_stream_decreasing_timestamp_reports_line(tmp_path):
    p = write(tmp_path / "s.csv", "timestamp,v\n0,1\n2,2\n1,3\n")
    with pytest.raises(DataError, match="line 4"):
        ingest.load_stream(p, {"v": "ECG"})


def test_load_stream_bad_value_reports_line_and_column(tmp_path):
    p = write(tmp_path / "s.csv", "timestamp,v\n0,1\n1,oops\n")
    with pytest.raises(DataError, match="line 3.*oops"):
        ingest.load_stream(p, {"v": "ECG"})


def test_load_stream_schema_column_missing(tmp_path):
    p = write(tmp_path / "s.csv", "timestamp,v\n0,1\n")
    with pytest.raises(DataError, match="s.csv: header has no schema column 'nope'"):
        ingest.load_stream(p, {"nope": "ECG"})


def test_load_stream_missing_file():
    with pytest.raises(DataError):
        ingest.load_stream("/nonexistent/stream.csv", {"v": "ECG"})


def test_load_stream_ragged_row(tmp_path):
    p = write(tmp_path / "s.csv", "timestamp,v\n0,1\n1\n")
    with pytest.raises(DataError, match="line 3"):
        ingest.load_stream(p, {"v": "ECG"})


def test_load_labels_file(tmp_path):
    p = write(tmp_path / "l.csv", "start_index,label\n0,0\n512,1\n1024,0\n")
    assert ingest.load_labels(p) == [(0, 0), (512, 1), (1024, 0)]
    bad = write(tmp_path / "bad.csv", "start_index,label\n10,1\n5,0\n")
    with pytest.raises(DataError, match="line 3"):
        ingest.load_labels(bad)
    extra = write(tmp_path / "extra.csv", "start_index,label\n0,0\n500,1,junk\n")
    with pytest.raises(DataError, match="line 3: expected 2 fields, got 3"):
        ingest.load_labels(extra)


def test_load_labels_negative_start_is_data_error(tmp_path):
    p = write(tmp_path / "l.csv", "start_index,label\n-5,1\n3,0\n")
    with pytest.raises(DataError, match="line 2.*negative"):
        ingest.load_labels(p)


@pytest.mark.parametrize("kind", ["stream", "labels"])
def test_flipped_csv_loads_or_is_data_error(tmp_path, kind):
    """Every single-byte corruption of a valid file loads or is a DataError
    naming the file, never another exception."""
    if kind == "stream":
        data = b"timestamp,ecg,label\n0.0,1.5,0\n0.5,-2.0,\n1.0,3.25,1\n1.5,4e1,0\n"

        def load(path):
            return ingest.load_stream(path, {"ecg": "ECG", "label": "label"})
    else:
        data = b"start_index,label\n0,0\n512,1\n1024,0\n"
        load = ingest.load_labels
    load(write(tmp_path / "valid.csv", data.decode()))
    cases = [(pos, mask) for pos in range(len(data)) for mask in (0xFF, 0x80)]
    # 0xff and 0x80 turn an ASCII byte into a non-UTF-8 one; 0x01 keeps it
    # ASCII and so reaches the parser, header included
    cases += [(pos, 0x01) for pos in range(len(data))]
    path = tmp_path / "flipped.csv"
    for pos, mask in cases:
        flipped = bytearray(data)
        flipped[pos] ^= mask
        path.write_bytes(bytes(flipped))
        try:
            load(str(path))
        except DataError as exc:
            assert str(path) in str(exc), (pos, mask, str(exc))


def test_label_at_change_points():
    labels = [(4, 1), (10, 0), (20, 1)]
    assert ingest.label_at(labels, 0) == 0
    assert ingest.label_at(labels, 4) == 1
    assert ingest.label_at(labels, 9) == 1
    assert ingest.label_at(labels, 10) == 0
    assert ingest.label_at(labels, 100) == 1
    assert ingest.label_at([], 5) == 0


# ---------------------------------------------------------------------------
# Gap repair
# ---------------------------------------------------------------------------

def test_forward_fill_interior_and_leading_gaps():
    ch = ingest.Channel("x", 1.0, [1.0, 0.0, 0.0, 4.0],
                        [False, True, True, False])
    filled = ingest.forward_fill(ch)
    assert np.array_equal(filled.values, [1.0, 1.0, 1.0, 4.0])
    assert not filled.missing.any()

    lead = ingest.forward_fill(ingest.Channel("x", 1.0, [0.0, 2.0, 0.0],
                                              [True, False, True]))
    assert np.array_equal(lead.values, [2.0, 2.0, 2.0])


def test_forward_fill_no_gaps_is_identity():
    ch = ingest.Channel("x", 1.0, [3.0, 1.0, 4.0])
    filled = ingest.forward_fill(ch)
    assert np.array_equal(filled.values, ch.values)


def test_forward_fill_all_missing_rejected():
    ch = ingest.Channel("x", 1.0, [0.0, 0.0], [True, True])
    with pytest.raises(DataError):
        ingest.forward_fill(ch)


def test_forward_fill_idempotent_and_gapless():
    rs = np.random.default_rng(0)
    for _ in range(200):
        n = int(rs.integers(2, 40))
        values = rs.standard_normal(n)
        missing = rs.uniform(size=n) < 0.4
        missing[rs.integers(0, n)] = False  # keep at least one present value
        ch = ingest.Channel("x", 1.0, values, missing)
        once = ingest.forward_fill(ch)
        assert not once.missing.any()
        twice = ingest.forward_fill(once)
        assert np.array_equal(once.values, twice.values)
        # every filled value is some present source value at or before it,
        # except leading gaps which borrow the first present value
        present = np.where(~missing)[0]
        for i in range(n):
            if not missing[i]:
                assert once.values[i] == values[i]
            else:
                earlier = present[present <= i]
                src = earlier[-1] if earlier.size else present[0]
                assert once.values[i] == values[src]


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def test_resample_doubling_rate():
    ch = ingest.Channel("x", 1.0, [0.0, 2.0])
    out = ingest.resample_uniform(ch, 2.0)
    assert np.array_equal(out.values, [0.0, 1.0, 2.0])
    assert out.rate_hz == 2.0


def test_resample_quadrupling_rate():
    ch = ingest.Channel("x", 1.0, [0.0, 4.0, 8.0])
    out = ingest.resample_uniform(ch, 4.0)
    assert np.array_equal(out.values, np.arange(9.0))


def test_resample_identity_is_bitwise():
    rs = np.random.default_rng(1)
    for rate in (1.0, 32.0, 700.0):
        ch = ingest.Channel("x", rate, rs.standard_normal(50))
        out = ingest.resample_uniform(ch, rate)
        assert np.array_equal(out.values, ch.values)


def test_resample_matches_scalar_interpolation():
    rs = np.random.default_rng(2)
    for _ in range(50):
        n = int(rs.integers(2, 30))
        rate = float(rs.uniform(0.5, 64.0))
        target = float(rs.uniform(0.5, 64.0))
        v = rs.standard_normal(n)
        out = ingest.resample_uniform(ingest.Channel("x", rate, v), target)
        m = int(np.floor((n - 1) * target / rate + 1e-9)) + 1
        assert len(out) == m
        for j in range(m):
            pos = min(j * rate / target, n - 1)
            i = min(int(pos), n - 2)
            frac = pos - i
            ref = v[i] if frac == 0 else v[i] * (1 - frac) + v[i + 1] * frac
            assert out.values[j] == pytest.approx(ref, abs=1e-12)


def test_resample_downsampling_hits_grid_points():
    # 4 Hz -> 2 Hz keeps every other sample exactly.
    v = np.array([1.0, 9.0, 2.0, 8.0, 3.0])
    out = ingest.resample_uniform(ingest.Channel("x", 4.0, v), 2.0)
    assert np.array_equal(out.values, [1.0, 2.0, 3.0])


def test_resample_requires_repaired_input():
    ch = ingest.Channel("x", 1.0, [1.0, 2.0], [False, True])
    with pytest.raises(UsageError):
        ingest.resample_uniform(ch, 2.0)


def test_rescale_label_indices():
    labels = [(0, 0), (700, 1), (1400, 0)]
    out = ingest.rescale_label_indices(labels, rate_hz=700.0, target_rate=32.0,
                                       new_len=96)
    assert out == [(0, 0), (32, 1), (64, 0)]
    # collisions collapse to the latest label at that index
    squeezed = ingest.rescale_label_indices([(0, 0), (1, 1)], 100.0, 1.0, 5)
    assert squeezed == [(0, 1)]


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

def test_slide_windows_1024_samples():
    ch = ingest.Channel("x", 32.0, np.arange(1024.0))
    windows = ingest.slide_windows(ch, window_len=128, stride=96)
    starts = [w.start_index for w in windows]
    assert starts == [0, 96, 192, 288, 384, 480, 576, 672, 768, 864, 960]
    # the last one is the zero-filled tail: 64 real samples then zeros
    tail = windows[-1]
    assert np.array_equal(tail.values[:64], np.arange(960.0, 1024.0))
    assert np.array_equal(tail.values[64:], np.zeros(64))
    for w in windows[:-1]:
        assert np.array_equal(w.values, np.arange(float(w.start_index),
                                                  w.start_index + 128.0))


def test_slide_windows_exact_fit():
    ch = ingest.Channel("x", 1.0, np.arange(128.0))
    windows = ingest.slide_windows(ch, window_len=128, stride=96)
    assert len(windows) == 1
    assert windows[0].start_index == 0


def test_slide_windows_tail_sits_on_stride_lattice():
    # 130 samples: one full window, then a tail at the next lattice point
    # (start 96) carrying the remaining 34 samples.
    ch = ingest.Channel("x", 1.0, np.arange(130.0))
    windows = ingest.slide_windows(ch, window_len=128, stride=96)
    assert [w.start_index for w in windows] == [0, 96]
    tail = windows[-1]
    assert np.array_equal(tail.values[:34], np.arange(96.0, 130.0))
    assert np.array_equal(tail.values[34:], np.zeros(94))


def test_slide_windows_short_signal():
    ch = ingest.Channel("x", 1.0, np.arange(5.0))
    windows = ingest.slide_windows(ch, window_len=8, stride=4)
    assert len(windows) == 1
    assert windows[0].start_index == 0
    assert np.array_equal(windows[0].values, [0, 1, 2, 3, 4, 0, 0, 0])


def test_slide_windows_counts_match_enumeration():
    """Closed-form count versus a brute-force lattice walk, 1000 cases."""
    rs = np.random.default_rng(3)
    for _ in range(1000):
        wlen = int(rs.integers(1, 40))
        stride = int(rs.integers(1, wlen + 1))
        n = int(rs.integers(1, 400))
        ch = ingest.Channel("x", 1.0, np.zeros(n))
        windows = ingest.slide_windows(ch, window_len=wlen, stride=stride)
        full, tail = enumerate_windows(n, wlen, stride)
        expected_starts = full + ([tail] if tail is not None else [])
        assert [w.start_index for w in windows] == expected_starts
        if n >= wlen:
            assert len(full) == (n - wlen) // stride + 1


def test_slide_windows_full_windows_are_slices():
    rs = np.random.default_rng(4)
    v = rs.standard_normal(300)
    ch = ingest.Channel("x", 1.0, v)
    for w in ingest.slide_windows(ch, window_len=32, stride=20)[:-1]:
        assert np.array_equal(w.values, v[w.start_index:w.start_index + 32])


def test_slide_windows_label_at_last_real_sample():
    ch = ingest.Channel("x", 1.0, np.zeros(200))
    labels = [(0, 0), (120, 1)]
    windows = ingest.slide_windows(ch, labels, window_len=64, stride=64)
    # full windows end at samples 63, 127, 191; the tail at 192 ends at 199
    assert [w.start_index for w in windows] == [0, 64, 128, 192]
    assert [w.label for w in windows] == [0, 1, 1, 1]
    # a tail's label comes from the last sample that exists, not the padding
    short = ingest.Channel("x", 1.0, np.zeros(100))
    tail_windows = ingest.slide_windows(short, [(99, 1)], window_len=64, stride=64)
    assert tail_windows[-1].start_index == 64
    assert tail_windows[-1].label == 1


def test_slide_windows_validates_stride():
    ch = ingest.Channel("x", 1.0, np.zeros(10))
    with pytest.raises(UsageError):
        ingest.slide_windows(ch, window_len=4, stride=5)
    with pytest.raises(UsageError):
        ingest.slide_windows(ch, window_len=4, stride=0)


def test_window_rejects_unrepaired_channel():
    ch = ingest.Channel("x", 1.0, [1.0, 2.0, 3.0], [False, True, False])
    with pytest.raises(UsageError):
        ingest.slide_windows(ch, window_len=2, stride=1)


# ---------------------------------------------------------------------------
# Stream-level helpers
# ---------------------------------------------------------------------------

def test_prepare_stream_aligns_channels(tmp_path):
    rows = ["timestamp,a,b,label"]
    for i in range(64):
        label = "" if i not in (0, 32) else ("1" if i == 32 else "0")
        rows.append(f"{i * 0.25},{np.sin(i * 0.3):.6f},{i},{label}")
    p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
    stream = ingest.load_stream(p, {"a": "ECG", "b": "EDA", "label": "label"})
    assert stream.channels["ECG"].rate_hz == pytest.approx(4.0)
    prepared = ingest.prepare_stream(stream, target_rate=8.0)
    assert prepared.channels["ECG"].rate_hz == 8.0
    assert len(prepared.channels["ECG"]) == len(prepared.channels["EDA"])
    assert prepared.labels == [(0, 0), (64, 1)]


def test_window_stream_uses_shared_lattice():
    chans = {
        "ECG": ingest.Channel("ECG", 8.0, np.arange(100.0)),
        "EMG": ingest.Channel("EMG", 8.0, np.arange(100.0) * 2.0),
    }
    stream = ingest.MultimodalStream(chans, labels=[(0, 1)])
    wins = ingest.window_stream(stream, window_len=32, stride=16)
    starts_ecg = [w.start_index for w in wins["ECG"]]
    starts_emg = [w.start_index for w in wins["EMG"]]
    assert starts_ecg == starts_emg
    assert all(w.label == 1 for w in wins["ECG"])


def test_stream_validates_label_order():
    ch = {"ECG": ingest.Channel("ECG", 1.0, [1.0, 2.0])}
    with pytest.raises(UsageError):
        ingest.MultimodalStream(ch, labels=[(5, 1), (2, 0)])
    with pytest.raises(UsageError):
        ingest.MultimodalStream(ch, labels=[(0, 3)])
