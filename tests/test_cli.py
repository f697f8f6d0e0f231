"""Tests for the command-line surface, the container formats, and exit codes."""

import json
import logging
import os
import re
import struct

import numpy as np
import pytest

from latentfuse import hostinfo, vqvae
from latentfuse.cli import (LatentEntry, RunConfig, main, read_dataset,
                            read_latents, sequences_from_latents,
                            write_dataset, write_latents)
from latentfuse.errors import (BadMagicError, DataError,
                               TruncatedPayloadError, UsageError,
                               VersionError)
from latentfuse.ingest import Window
from latentfuse.spectral import SpectralImage, spectral_image
from latentfuse.synthetic import make_images, make_stream


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

def test_runconfig_defaults():
    cfg = RunConfig.from_file(None)
    assert cfg.window_len == 128
    assert cfg.stride == 96
    assert cfg.frame_len == 64
    assert cfg.codebook_size == 128
    assert cfg.embed_dim == 16
    assert cfg.taper == "hann"


def test_runconfig_overrides_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# training knobs\n"
                    "seed = 7\n"
                    "\n"
                    "lr=1e-3  # inline comment\n"
                    "taper = rect\n")
    cfg = RunConfig.from_file(str(path))
    assert cfg.seed == 7
    assert cfg.lr == pytest.approx(1e-3)
    assert cfg.taper == "rect"
    assert cfg.stride == 96  # untouched keys keep defaults


def test_runconfig_unknown_key_reports_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=1\nwindowlen=64\n")
    with pytest.raises(UsageError, match="line 2"):
        RunConfig.from_file(str(path))


def test_runconfig_bad_value_reports_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps=plenty\n")
    with pytest.raises(UsageError, match="line 1.*steps"):
        RunConfig.from_file(str(path))


def test_runconfig_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed 1\n")
    with pytest.raises(UsageError, match="key=value"):
        RunConfig.from_file(str(path))


def test_runconfig_missing_file():
    with pytest.raises(DataError):
        RunConfig.from_file("/nonexistent/run.cfg")


def test_runconfig_byte_not_utf8_reports_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed=1\n# caf\xe9\nsteps=2\n")
    with pytest.raises(DataError, match="line 2: not valid UTF-8"):
        RunConfig.from_file(str(path))


# ---------------------------------------------------------------------------
# Windowed dataset container
# ---------------------------------------------------------------------------

def _sample_windows():
    rs = np.random.default_rng(3)
    windows = {}
    for name in ("ECG", "EMG"):
        windows[name] = [
            Window(s, rs.normal(0, 1, 16).astype(np.float32).astype(np.float64),
                   int(s >= 16))
            for s in (0, 16, 32)
        ]
    return windows


def test_dataset_round_trip(tmp_path):
    windows = _sample_windows()
    path = tmp_path / "data.lsfd"
    write_dataset(str(path), windows, 16)
    back, window_len = read_dataset(str(path))
    assert window_len == 16
    assert sorted(back) == ["ECG", "EMG"]
    for name in windows:
        assert len(back[name]) == 3
        for orig, got in zip(windows[name], back[name]):
            assert got.start_index == orig.start_index
            assert got.label == orig.label
            np.testing.assert_array_equal(got.values, orig.values)


def test_dataset_missing_file():
    with pytest.raises(DataError):
        read_dataset("/nonexistent/data.lsfd")


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "data.lsfd"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        read_dataset(str(path))


def test_dataset_bad_version(tmp_path):
    path = tmp_path / "data.lsfd"
    write_dataset(str(path), _sample_windows(), 16)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError, match="9"):
        read_dataset(str(path))


def test_dataset_truncation(tmp_path):
    path = tmp_path / "data.lsfd"
    write_dataset(str(path), _sample_windows(), 16)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(TruncatedPayloadError, match="window"):
        read_dataset(str(path))


# ---------------------------------------------------------------------------
# Latent container
# ---------------------------------------------------------------------------

# a K=50, D=4 codebook for the 3 x 3 sample entries
CODEBOOK = vqvae.Codebook(
    np.random.default_rng(8).normal(0, 1, (50, 4)).astype(np.float32))


def _sample_entries(starts=(0, 96), labels=None, modalities=("ECG", "EMG"),
                    grid=3, seed=9):
    rs = np.random.default_rng(seed)
    labels = labels if labels is not None else [0] * len(starts)
    entries = []
    for name in modalities:
        for start, label in zip(starts, labels):
            idx = rs.integers(0, CODEBOOK.k, (grid, grid)).astype(np.uint16)
            entries.append(LatentEntry(name, start, label, idx))
    return entries


def test_latents_round_trip(tmp_path):
    model = vqvae.build_model(128, 16, seed=3)
    images = [SpectralImage(px) for px in make_images(3, seed=4)]
    codes = [vqvae.encode_image(model, im) for im in images]
    entries = [LatentEntry("ECG", 96 * i, i % 2, c.indices)
               for i, c in enumerate(codes)]
    path = tmp_path / "codes.lsfl"
    write_latents(str(path), entries, model.codebook, vqvae.GRID)
    back, codebook = read_latents(str(path))
    assert codebook.entries.tobytes() == model.codebook.entries.tobytes()
    assert [(e.modality, e.start, e.label) for e in back] == \
        [(e.modality, e.start, e.label) for e in entries]
    for got, code in zip(back, codes):
        np.testing.assert_array_equal(got.indices, code.indices)
        # the quantized tensor the encoder produced, rebuilt bitwise
        rebuilt = codebook.lookup(got.indices)
        assert rebuilt.dtype == code.quantized.dtype
        assert rebuilt.tobytes() == code.quantized.tobytes()


def test_latents_bad_magic(tmp_path):
    path = tmp_path / "codes.lsfl"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(BadMagicError):
        read_latents(str(path))


def test_latents_bad_version(tmp_path):
    path = tmp_path / "codes.lsfl"
    write_latents(str(path), _sample_entries(), CODEBOOK, 3)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        read_latents(str(path))


def test_latents_truncation(tmp_path):
    path = tmp_path / "codes.lsfl"
    write_latents(str(path), _sample_entries(), CODEBOOK, 3)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayloadError, match="entry"):
        read_latents(str(path))


def test_latents_missing_file():
    with pytest.raises(DataError):
        read_latents("/nonexistent/codes.lsfl")


def test_latents_bad_modality_id(tmp_path, capsys):
    path = tmp_path / "codes.lsfl"
    write_latents(str(path), _sample_entries(starts=(0,), modalities=("ECG",)),
                  CODEBOOK, 3)
    raw = bytearray(path.read_bytes())
    # header, codebook, one-name table ("ECG"), entry count, then the entry's
    # modality id
    at = 20 + CODEBOOK.entries.nbytes + 2 + 2 + len("ECG") + 4
    struct.pack_into("<H", raw, at, 5)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="modality id 5"):
        read_latents(str(path))
    code = main(["eval", "--latents", str(path), "--head", str(tmp_path / "h.lsfw"),
                 "--modalities", "ECG"])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_repeated_modality_exits_one(tmp_path, capsys):
    path = tmp_path / "codes.lsfl"
    write_latents(str(path), _sample_entries(starts=(0, 96, 192)), CODEBOOK, 3)
    code = main(["train-classifier", "--latents", str(path), "--modalities", "ECG,ECG",
                 "--out", str(tmp_path / "head.lsfw")])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "'ECG'" in err
    assert not (tmp_path / "head.lsfw").exists()


def _write_sample_container(path, fmt):
    if fmt == "lsfd":
        write_dataset(str(path), _sample_windows(), 16)
        return read_dataset
    write_latents(str(path), _sample_entries(), CODEBOOK, 3)
    return read_latents


@pytest.mark.parametrize("fmt", ["lsfd", "lsfl"])
def test_container_cut_anywhere_is_data_error(tmp_path, fmt):
    path = tmp_path / f"x.{fmt}"
    read = _write_sample_container(path, fmt)
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(DataError, match=re.escape(str(path))):
            read(str(path))


@pytest.mark.parametrize("fmt", ["lsfd", "lsfl"])
def test_container_flipped_anywhere_reads_or_is_data_error(tmp_path, fmt):
    path = tmp_path / f"x.{fmt}"
    read = _write_sample_container(path, fmt)
    data = path.read_bytes()
    rejected = 0
    for i in range(len(data)):
        for mask in (0xFF, 0x80):
            raw = bytearray(data)
            raw[i] ^= mask
            path.write_bytes(bytes(raw))
            try:
                read(str(path))
            except DataError as exc:
                # any other exception class fails the test as it propagates
                assert str(path) in str(exc), (i, mask, exc)
                rejected += 1
    # the magic and the version alone give 2 * 8 rejected flips
    assert rejected >= 16


@pytest.mark.parametrize("fmt", ["lsfd", "lsfl"])
def test_container_label_past_one_is_data_error(tmp_path, fmt):
    path = tmp_path / f"x.{fmt}"
    read = _write_sample_container(path, fmt)
    raw = bytearray(path.read_bytes())
    # the last record's label byte: its modality id and start come first
    record = 7 + (4 * 16 if fmt == "lsfd" else 2 * 3 * 3)
    raw[len(raw) - record + 6] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="label 2"):
        read(str(path))


@pytest.mark.parametrize("fmt", ["lsfd", "lsfl"])
def test_container_sample_count_zero_exits_two(tmp_path, capsys, fmt):
    # a window_len (.lsfd) or grid (.lsfl) of 0 in an otherwise valid file
    path = tmp_path / f"x.{fmt}"
    if fmt == "lsfd":
        write_dataset(str(path), {"ECG": [Window(0, np.zeros(0), 0)]}, 0)
        args = ["dump", "--data", str(path)]
    else:
        write_latents(str(path), _sample_entries(labels=[0, 1], grid=0), CODEBOOK, 0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seq_len=1\n")
        args = ["train-classifier", "--latents", str(path), "--modalities", "ECG",
                "--out", str(tmp_path / "h.lsfw"), "--config", str(cfg)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert str(path) in err


def test_dataset_name_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "data.lsfd"
    write_dataset(str(path), _sample_windows(), 16)
    raw = bytearray(path.read_bytes())
    # magic, version, name count, then the first name's length and bytes
    raw[4 + 4 + 2 + 2] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="not valid UTF-8"):
        read_dataset(str(path))
    assert main(["dump", "--data", str(path)]) == 2
    assert "data error" in capsys.readouterr().err


def test_latents_code_index_past_codebook_exits_two(tmp_path, capsys):
    path = tmp_path / "codes.lsfl"
    write_latents(str(path), _sample_entries(), CODEBOOK, 3)
    raw = bytearray(path.read_bytes())
    # the last u16 of the file is the last entry's last code index
    struct.pack_into("<H", raw, len(raw) - 2, CODEBOOK.k)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"code index {CODEBOOK.k}.*50 codes"):
        read_latents(str(path))
    code = main(["eval", "--latents", str(path), "--head", str(tmp_path / "h.lsfw"),
                 "--modalities", "ECG"])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_latents_version_one_is_version_error(tmp_path):
    path = tmp_path / "codes.lsfl"
    write_latents(str(path), _sample_entries(), CODEBOOK, 3)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError, match="version 1; re-run encode"):
        read_latents(str(path))


def test_latents_codebook_too_large_for_u16_is_usage_error(tmp_path):
    codebook = vqvae.Codebook(np.zeros((65537, 1), dtype=np.float32))
    path = tmp_path / "codes.lsfl"
    with pytest.raises(UsageError, match="65537"):
        write_latents(str(path), _sample_entries(), codebook, 3)


# ---------------------------------------------------------------------------
# Aligning latents into sequences
# ---------------------------------------------------------------------------

def test_train_and_eval_on_grid_ten_latents(tmp_path):
    # the head file does not store its grid: eval must rebuild a head that
    # takes the 10 x 10 latents it was trained on
    codes, head = tmp_path / "codes.lsfl", tmp_path / "head.lsfw"
    entries = _sample_entries(starts=tuple(range(0, 8 * 96, 96)),
                              labels=[0, 0, 1, 1] * 2, grid=10)
    write_latents(str(codes), entries, CODEBOOK, 10)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=2\nbatch=4\nseq_len=2\n")
    common = ["--latents", str(codes), "--modalities", "ECG,EMG", "--config", str(cfg)]
    assert main(["train-classifier", "--out", str(head)] + common) == 0
    assert main(["eval", "--head", str(head)] + common) == 0


def test_sequences_align_and_label():
    entries = _sample_entries(starts=(0, 96, 192, 288), labels=[0, 0, 1, 1])
    samples = sequences_from_latents(entries, CODEBOOK, ("ECG", "EMG"), seq_len=2)
    assert len(samples) == 2
    # the sequence takes the label of its last step
    assert [s.label for s in samples] == [0, 1]
    assert all(len(s.steps) == 2 for s in samples)
    # fused channel order follows the requested modality order
    by_key = {(e.modality, e.start): e for e in entries}
    first = samples[0].steps[0].tensor
    np.testing.assert_array_equal(first[:4],
                                  CODEBOOK.lookup(by_key[("ECG", 0)].indices))
    np.testing.assert_array_equal(first[4:],
                                  CODEBOOK.lookup(by_key[("EMG", 0)].indices))


def test_sequences_missing_modality():
    entries = _sample_entries(modalities=("ECG",))
    with pytest.raises(DataError, match="EMG"):
        sequences_from_latents(entries, CODEBOOK, ("ECG", "EMG"), seq_len=1)


def test_sequences_disjoint_starts():
    a = _sample_entries(starts=(0, 96), modalities=("ECG",))
    b = _sample_entries(starts=(48, 144), modalities=("EMG",))
    with pytest.raises(DataError, match="only 0 aligned steps"):
        sequences_from_latents(a + b, CODEBOOK, ("ECG", "EMG"), seq_len=1)


def test_sequences_too_short_for_seq_len():
    entries = _sample_entries(starts=(0, 96))
    with pytest.raises(DataError, match="seq_len"):
        sequences_from_latents(entries, CODEBOOK, ("ECG", "EMG"), seq_len=5)


# ---------------------------------------------------------------------------
# Exit codes through main()
# ---------------------------------------------------------------------------

def _write_stream_csv(path, n=1024, seed=0):
    """CSV with timestamp, two signal columns, and a dense label column."""
    stream = make_stream(n_samples=n, rate_hz=32.0, seed=seed)
    ecg = stream.channels["ECG"].values
    emg = stream.channels["EMG"].values
    state = (np.arange(n) // 512) % 2
    with open(path, "w") as fh:
        fh.write("timestamp,ecg_mv,emg_mv,state\n")
        for i in range(n):
            fh.write(f"{i / 32.0:.6f},{ecg[i]:.9g},{emg[i]:.9g},{state[i]}\n")


def test_exit_zero_on_success(tmp_path, capsys):
    csv_path = tmp_path / "stream.csv"
    _write_stream_csv(str(csv_path))
    out = tmp_path / "data.lsfd"
    code = main(["ingest", "--csv", str(csv_path),
                 "--schema", "ecg_mv=ECG,emg_mv=EMG,state=label",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_exit_one_on_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "stream.csv"
    _write_stream_csv(str(csv_path), n=256)
    code = main(["ingest", "--csv", str(csv_path), "--schema", "ecg_mv",
                 "--out", str(tmp_path / "x.lsfd")])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("text,line", [
    ("seq_len=0", 1), ("batch=0", 1), ("epochs=-1", 1),
    ("seed=1;codebook_size=0", 2), ("embed_dim=0", 1), ("window_len=0", 1),
    ("frame_len=0", 1), ("steps=-1", 1), ("stride=0", 1), ("stride=200", 1),
    ("window_len=64", 1), ("stride=100;seed=3;window_len=99", 3),
    ("floor_db=nan", 1), ("seed=1;beta=inf", 2), ("lr=0", 1), ("lr=-1e-3", 1),
    ("beta=-0.25", 1), ("resample_hz=-5", 1), ("energy_per_mac=-1e-12", 1),
    ("threshold=1.5", 1), ("threshold=-0.1", 1), ("threshold=nan", 1),
    ("hop=0", 1), ("seed=2;frame_len=63", 2), ("frame_len=130", 1),
    ("frame_len=32;window_len=30;stride=10", 2), ("seed=-1", 1),
    ("taper=foo", 1), ("seed=4;taper=Hann", 2),
])
def test_exit_one_on_out_of_range_config(tmp_path, capsys, text, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace(";", "\n") + "\n")
    # the config is read first; the absent CSV would otherwise be exit 2
    code = main(["ingest", "--csv", str(tmp_path / "absent.csv"),
                 "--schema", "ecg_mv=ECG", "--out", str(tmp_path / "x.lsfd"),
                 "--config", str(cfg)])
    assert code == 1
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("csv_lines,label_lines,line", [
    ([b"2,0.5,nan"], None, 3),
    ([b"2,0.5,inf"], None, 3),
    ([b"2,0.5,1.5"], None, 3),
    ([b"nan,0.5,1"], None, 3),
    ([b"2,1e308,1"], None, 3),
    ([b"2,0.5,1", b"3,0.\xff5,1"], None, 4),
    ([], [b"0,0", b"\xff2,1"], 3),
])
def test_ingest_hostile_csv_exits_two_naming_the_line(tmp_path, capsys, csv_lines,
                                                      label_lines, line):
    csv_path = tmp_path / "stream.csv"
    csv_path.write_bytes(b"\n".join([b"timestamp,ecg,state", b"1,0.25,0"]
                                    + csv_lines) + b"\n")
    args = ["ingest", "--csv", str(csv_path), "--schema", "ecg=ECG,state=label",
            "--out", str(tmp_path / "x.lsfd")]
    if label_lines is not None:
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"\n".join([b"start_index,label"] + label_lines) + b"\n")
        args += ["--labels", str(labels)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert f"line {line}:" in err


def test_train_encoder_negative_synthetic_exits_one(tmp_path, capsys):
    out = tmp_path / "model.lsfw"
    assert main(["train-encoder", "--synthetic", "-3", "--out", str(out)]) == 1
    assert "--synthetic must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_dump_negative_limit_exits_one(tmp_path, capsys):
    path = tmp_path / "data.lsfd"
    write_dataset(str(path), _sample_windows(), 16)
    assert main(["dump", "--data", str(path), "--limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert "--limit must be at least 0" in captured.err
    assert captured.out == ""


def test_exit_one_on_bad_subcommand(capsys):
    assert main(["frobnicate"]) == 1


def test_exit_two_on_missing_input(tmp_path, capsys):
    code = main(["dump", "--data", str(tmp_path / "absent.lsfd")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_exit_two_on_corrupt_weights(tmp_path, capsys):
    bad = tmp_path / "model.lsfw"
    bad.write_bytes(b"garbage header")
    code = main(["encode", "--model", str(bad),
                 "--data", str(tmp_path / "whatever.lsfd"),
                 "--out", str(tmp_path / "out.lsfl")])
    assert code == 2


def test_exit_three_on_poisoned_training_images(tmp_path, capsys):
    values = np.sin(np.arange(128.0))
    poisoned = values.copy()
    poisoned[5] = np.nan
    data = tmp_path / "data.lsfd"
    write_dataset(str(data), {"ECG": [Window(0, values, 0), Window(96, poisoned, 1)]},
                  128)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=3\nbatch=2\n")
    code = main(["train-encoder", "--data", str(data),
                 "--out", str(tmp_path / "model.lsfw"), "--config", str(cfg)])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err
    assert not (tmp_path / "model.lsfw").exists()


def test_train_encoder_data_without_windows_exits_one(tmp_path, capsys):
    data = tmp_path / "empty.lsfd"
    write_dataset(str(data), {"ECG": []}, 128)
    code = main(["train-encoder", "--data", str(data),
                 "--out", str(tmp_path / "model.lsfw")])
    assert code == 1
    assert "no images" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# End-to-end pipeline through the CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One ingest -> train -> encode -> classify -> eval chain, reused below."""
    root = tmp_path_factory.mktemp("cliflow")
    csv_path = root / "stream.csv"
    _write_stream_csv(str(csv_path))
    cfg = root / "run.cfg"
    cfg.write_text("seed=0\nsteps=20\nbatch=4\nepochs=8\nseq_len=2\n")

    assert main(["ingest", "--csv", str(csv_path),
                 "--schema", "ecg_mv=ECG,emg_mv=EMG,state=label",
                 "--out", str(root / "data.lsfd"), "--config", str(cfg)]) == 0
    assert main(["train-encoder", "--synthetic", "8",
                 "--out", str(root / "model.lsfw"),
                 "--curve", str(root / "loss.csv"), "--config", str(cfg)]) == 0
    assert main(["encode", "--model", str(root / "model.lsfw"),
                 "--data", str(root / "data.lsfd"),
                 "--out", str(root / "codes.lsfl"), "--config", str(cfg)]) == 0
    assert main(["train-classifier", "--latents", str(root / "codes.lsfl"),
                 "--modalities", "ECG,EMG", "--out", str(root / "head.lsfw"),
                 "--curve", str(root / "train.csv"), "--config", str(cfg)]) == 0
    assert main(["eval", "--latents", str(root / "codes.lsfl"),
                 "--head", str(root / "head.lsfw"), "--modalities", "ECG,EMG",
                 "--out", str(root / "metrics.json"),
                 "--config", str(cfg)]) == 0
    return root


def test_pipeline_artifacts_exist(workdir):
    for name in ("data.lsfd", "model.lsfw", "codes.lsfl", "head.lsfw",
                 "metrics.json", "loss.csv", "train.csv"):
        assert (workdir / name).exists(), name


def test_pipeline_window_lattice(workdir):
    windows, window_len = read_dataset(str(workdir / "data.lsfd"))
    assert window_len == 128
    starts = [w.start_index for w in windows["ECG"]]
    assert starts == [96 * i for i in range(10)] + [960]
    assert [w.start_index for w in windows["EMG"]] == starts
    # causal labels: windows whose last real sample falls in the second
    # segment carry label 1
    labels = [w.label for w in windows["ECG"]]
    assert labels == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]


def test_pipeline_latents_match_dataset(workdir):
    entries, codebook = read_latents(str(workdir / "codes.lsfl"))
    assert (codebook.k, codebook.d) == (128, 16)
    assert len(entries) == 22
    assert {e.modality for e in entries} == {"ECG", "EMG"}
    for e in entries:
        assert e.indices.shape == (16, 16)
        assert codebook.lookup(e.indices).shape == (16, 16, 16)
        assert e.indices.max() < 128


def test_pipeline_metrics_json(workdir):
    metrics = json.loads((workdir / "metrics.json").read_text())
    assert set(metrics) == {"accuracy", "f1", "auc", "tp", "fp", "tn", "fn"}
    assert metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"] == 5
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_eval_empty_modality_list_exits_one(workdir, capsys):
    code = main(["eval", "--latents", str(workdir / "codes.lsfl"),
                 "--head", str(workdir / "head.lsfw"), "--modalities", ","])
    assert code == 1
    assert "modality list must not be empty" in capsys.readouterr().err


def test_pipeline_curves_well_formed(workdir):
    loss_lines = (workdir / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "step,reconstruction,codebook,commitment,total"
    assert len(loss_lines) == 21
    train_lines = (workdir / "train.csv").read_text().strip().splitlines()
    assert train_lines[0] == "epoch,loss,accuracy"
    assert len(train_lines) == 9


def test_dump_round_trips_values(workdir, capsys):
    assert main(["dump", "--data", str(workdir / "data.lsfd"),
                 "--limit", "3"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3
    windows, _ = read_dataset(str(workdir / "data.lsfd"))
    first = lines[0].split(",")
    assert first[0] == "ECG"
    assert int(first[1]) == windows["ECG"][0].start_index
    values = np.array([float(v) for v in first[3:]])
    np.testing.assert_allclose(values, windows["ECG"][0].values, rtol=1e-6)


def test_ingest_is_deterministic(workdir, tmp_path):
    csv_path = tmp_path / "again.csv"
    _write_stream_csv(str(csv_path))
    out = tmp_path / "again.lsfd"
    assert main(["ingest", "--csv", str(csv_path),
                 "--schema", "ecg_mv=ECG,emg_mv=EMG,state=label",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (workdir / "data.lsfd").read_bytes()


def test_equal_seeds_give_identical_weights(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=0\nsteps=20\nbatch=4\nepochs=8\nseq_len=2\n")
    out = tmp_path / "model2.lsfw"
    assert main(["train-encoder", "--synthetic", "8", "--out", str(out),
                 "--config", str(cfg)]) == 0
    assert out.read_bytes() == (workdir / "model.lsfw").read_bytes()

    head2 = tmp_path / "head2.lsfw"
    assert main(["train-classifier", "--latents", str(workdir / "codes.lsfl"),
                 "--modalities", "ECG,EMG", "--out", str(head2),
                 "--config", str(cfg)]) == 0
    assert head2.read_bytes() == (workdir / "head.lsfw").read_bytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_train_encoder_data_is_in_process_training(workdir, tmp_path, runners, n):
    """--data renders every window (sorted modality, then window order) and
    trains on their stack: the files equal an in-process run's bytes."""
    runners(n)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed=3\nsteps=4\nbatch=4\ncodebook_size=16\n")
    assert main(["train-encoder", "--data", str(workdir / "data.lsfd"),
                 "--out", str(tmp_path / "cli.lsfw"), "--curve", str(tmp_path / "cli.csv"),
                 "--config", str(cfg_path)]) == 0

    cfg = RunConfig.from_file(str(cfg_path))
    windows, _ = read_dataset(str(workdir / "data.lsfd"))
    images = [spectral_image(w, cfg.spectral())
              for name in sorted(windows) for w in windows[name]]
    assert len(images) == 22
    model, curve = vqvae.train_vqvae(vqvae.image_batch(images), cfg.vqvae())
    vqvae.save_model(model, str(tmp_path / "want.lsfw"))
    vqvae.write_loss_curve(str(tmp_path / "want.csv"), curve)
    for got, want in (("cli.lsfw", "want.lsfw"), ("cli.csv", "want.csv")):
        assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes()


# each argv names a file that cannot be read or written as asked: {dir} is a
# directory, {missing} one that does not exist, {file} an empty regular file
@pytest.mark.parametrize("argv", [
    "dump --data {dir}",
    "ingest --csv {dir} --schema ecg_mv=ECG --out {dir}/d.lsfd",
    "eval --latents {dir} --head {work}/head.lsfw --modalities ECG,EMG",
    "eval --latents {work}/codes.lsfl --head {work}/head.lsfw --modalities ECG "
    "--config {dir}",
    "train-encoder --data {dir} --out {dir}/m.lsfw",
    "train-encoder --data {missing}/d.lsfd --out {dir}/m.lsfw",
    "train-encoder --data {file} --out {dir}/m.lsfw",
    "ingest --csv {work}/stream.csv --schema ecg_mv=ECG,emg_mv=EMG "
    "--out {missing}/d.lsfd",
    "encode --model {work}/model.lsfw --data {work}/data.lsfd --out {missing}/c.lsfl",
    "bench --skip-metrics --repeat 1 --out-dir {file}/bench",
    "train-encoder --synthetic 2 --out {missing}/m.lsfw --config {tiny}",
    "train-encoder --synthetic 2 --out {dir}/m.lsfw --curve {missing}/c.csv "
    "--config {tiny}",
    "eval --latents {work}/codes.lsfl --head {work}/head.lsfw --modalities ECG "
    "--config {latin1}",
], ids=["dump-dir", "ingest-csv-dir", "eval-latents-dir", "config-dir",
        "train-data-dir", "train-data-missing", "train-data-foreign", "ingest-out",
        "encode-out", "bench-out-dir", "train-out", "train-curve", "config-not-utf8"])
def test_unusable_path_exits_two_without_traceback(workdir, tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    (tmp_path / "tiny.cfg").write_text("steps=1\nbatch=2\n")
    (tmp_path / "latin1.cfg").write_bytes(b"seed=1\nsteps=1 # \xe9\n")
    paths = {"dir": tmp_path, "missing": tmp_path / "missing", "file": tmp_path / "file",
             "work": workdir, "tiny": tmp_path / "tiny.cfg",
             "latin1": tmp_path / "latin1.cfg"}
    code = main([arg.format(**paths) for arg in argv.split()])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: ") and "Traceback" not in err


def test_classifier_needs_modalities(workdir, capsys):
    code = main(["train-classifier", "--latents", str(workdir / "codes.lsfl"),
                 "--out", "/tmp/never.lsfw"])
    assert code == 1


def test_eval_rejects_missing_modality(workdir, capsys):
    code = main(["eval", "--latents", str(workdir / "codes.lsfl"),
                 "--head", str(workdir / "head.lsfw"),
                 "--modalities", "ECG,EDA"])
    assert code == 2


# ---------------------------------------------------------------------------
# Benchmark command
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("skip_metrics", [True, False],
                         ids=["skip-metrics", "with-metrics"])
def test_bench_synthetic_outputs(tmp_path, capsys, caplog, skip_metrics):
    caplog.set_level(logging.INFO, logger="latentfuse.cli")
    cfg = tmp_path / "bench.cfg"
    # the training keys only size the fig-4 run; no MAC, parameter or energy
    # column depends on them
    cfg.write_text("energy_per_mac=1e-12\nsteps=5\nbatch=2\nepochs=2\nseq_len=2\n")
    out_dir = tmp_path / "bench"
    flags = ["--skip-metrics"] if skip_metrics else []
    code = main(["bench", *flags, "--repeat", "2",
                 "--out-dir", str(out_dir), "--config", str(cfg)])
    assert code == 0
    present = sorted(os.listdir(out_dir))
    assert present == sorted(["fig3_runs.csv", "fig3_runtime.csv", "fig5_macs.csv",
                              "scaling_table.csv"]
                             + ([] if skip_metrics else ["fig4_metrics.csv"]))

    table = (out_dir / "scaling_table.csv").read_text().strip().splitlines()
    assert len(table) == 7
    header = table[0].split(",")
    assert header == ["m", "unified_macs", "baseline_macs", "unified_params",
                      "baseline_params", "unified_loads", "baseline_loads",
                      "runtime_s_unified", "runtime_s_baseline"]
    for row in table[1:]:
        fields = dict(zip(header, row.split(",")))
        m = int(fields["m"])
        assert int(fields["unified_loads"]) == 1
        assert int(fields["baseline_loads"]) == m
        assert float(fields["runtime_s_unified"]) > 0
        assert float(fields["runtime_s_baseline"]) > 0

    runs = (out_dir / "fig3_runs.csv").read_text().strip().splitlines()
    assert len(runs) == 1 + 6 * 2 * 2  # header + m-values x systems x repeat
    # each point's log line names the BLAS thread count behind its timing
    fig3 = [r.getMessage() for r in caplog.records if r.getMessage().startswith("fig3 m=")]
    assert len(fig3) == 6
    assert all(line.endswith(f"(one runner, {hostinfo.blas_threads()} BLAS threads)")
               for line in fig3)

    macs = (out_dir / "fig5_macs.csv").read_text().strip().splitlines()
    assert macs[0] == "m,unified_macs,baseline_macs,unified_energy_j,baseline_energy_j"
    assert len(macs) == 7
    from latentfuse import costmodel
    for row in macs[1:]:
        m_s, uni, base, uni_j, base_j = row.split(",")
        assert int(uni) == costmodel.pipeline_cost("unified", int(m_s),
                                                   seq_len=1).total_macs
        assert int(base) == costmodel.pipeline_cost("baseline", int(m_s),
                                                    seq_len=1).total_macs
        # energy is priced once, from the config's energy_per_mac
        assert uni_j == f"{int(uni) * 1e-12:.6e}"
        assert base_j == f"{int(base) * 1e-12:.6e}"

    if skip_metrics:
        return
    # fig 4 at a tiny config: its shape and ranges, not which M wins
    metrics = (out_dir / "fig4_metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "m,accuracy,f1,auc"
    assert [int(row.split(",")[0]) for row in metrics[1:]] == [1, 2, 3, 4, 5, 6]
    for row in metrics[1:]:
        _, accuracy, f1, auc = row.split(",")
        assert np.isfinite(float(accuracy)) and np.isfinite(float(f1))
        assert auc == "" or 0.0 <= float(auc) <= 1.0


def test_bench_refuses_zero_repeat(tmp_path, capsys):
    code = main(["bench", "--skip-metrics", "--repeat", "0",
                 "--out-dir", str(tmp_path / "bench")])
    assert code == 1
    assert "--repeat" in capsys.readouterr().err
