"""Tests for the STFT, dB scaling and colormap rendering."""

import hashlib

import numpy as np
import pytest

from latentfuse import pipeline, spectral, synthetic
from latentfuse.errors import NumericError, UsageError
from latentfuse.ingest import Window, slide_windows

from helpers import (db_spectrogram_by_formula, direct_dft, four_gather_resize,
                     render_by_formula, rows_colormap)


def full_bins(b):
    """Extend half-spectrum rows to the full DFT via conjugate symmetry."""
    return np.concatenate([b, np.conj(b[1:-1][::-1])], axis=0)


# ---------------------------------------------------------------------------
# STFT against the literal summation
# ---------------------------------------------------------------------------

def test_stft_matches_direct_dft():
    rs = np.random.default_rng(0)
    for frame_len, hop, taper in [(8, 2, "rect"), (8, 1, "hann"),
                                  (16, 4, "hann"), (16, 3, "rect")]:
        x = rs.standard_normal(40)
        spec = spectral.stft(x, frame_len, hop, taper)
        w = spectral.taper_window(taper, frame_len)
        ref = direct_dft(x, frame_len, hop, w)
        assert spec.shape == ref.shape
        scale = np.abs(ref).max()
        assert np.abs(spec - ref).max() < 1e-9 * max(scale, 1.0)


def test_stft_grid_dimensions():
    spec = spectral.stft(np.zeros(128), frame_len=64, hop=1, taper="hann")
    assert spec.shape == (33, 65)


def test_stft_constant_signal_concentrates_at_dc():
    spec = spectral.stft(np.ones(32), frame_len=16, hop=4, taper="rect")
    assert np.allclose(np.abs(spec[0]), 16.0)
    assert np.abs(spec[1:]).max() < 1e-9


def test_stft_pure_tone_hits_one_bin():
    # cosine with 4 cycles per 64-sample frame lands in bin 4 at half the
    # frame length; every other bin is numerically zero
    n = np.arange(128)
    x = np.cos(2 * np.pi * 4 * n / 64)
    spec = spectral.stft(x, frame_len=64, hop=1, taper="rect")
    mags = np.abs(spec)
    assert np.allclose(mags[4], 32.0, atol=1e-9)
    others = np.delete(mags, 4, axis=0)
    assert others.max() < 1e-9
    assert np.all(mags.argmax(axis=0) == 4)


def test_stft_is_linear():
    rs = np.random.default_rng(1)
    x = rs.standard_normal(48)
    y = rs.standard_normal(48)
    a, b = 2.5, -1.25
    sx = spectral.stft(x, 16, 2, "hann")
    sy = spectral.stft(y, 16, 2, "hann")
    sxy = spectral.stft(a * x + b * y, 16, 2, "hann")
    assert np.allclose(sxy, a * sx + b * sy, atol=1e-9)


def test_stft_shift_by_hop_drops_first_frame():
    rs = np.random.default_rng(2)
    x = rs.standard_normal(50)
    spec = spectral.stft(x, 16, 2, "hann")
    shifted = spectral.stft(x[2:], 16, 2, "hann")
    assert np.allclose(shifted, spec[:, 1:], atol=1e-12)


def test_stft_parseval_on_disjoint_frames():
    """Frame energy equals mean squared magnitude over the full bin set
    when frames are rectangular and do not overlap."""
    rs = np.random.default_rng(3)
    for _ in range(20):
        frame_len = int(rs.choice([8, 16, 32]))
        n_frames = int(rs.integers(1, 5))
        x = rs.standard_normal(frame_len * n_frames)
        spec = spectral.stft(x, frame_len, hop=frame_len, taper="rect")
        fb = full_bins(spec)
        for t in range(n_frames):
            frame = x[t * frame_len:(t + 1) * frame_len]
            time_energy = np.sum(frame ** 2)
            freq_energy = np.sum(np.abs(fb[:, t]) ** 2) / frame_len
            assert abs(time_energy - freq_energy) < 1e-6


def test_stft_input_validation():
    with pytest.raises(UsageError):
        spectral.stft(np.zeros(32), frame_len=15)
    with pytest.raises(UsageError):
        spectral.stft(np.zeros(8), frame_len=16)
    with pytest.raises(UsageError):
        spectral.stft(np.zeros(32), frame_len=16, hop=0)
    with pytest.raises(UsageError):
        spectral.stft(np.zeros((4, 8)), frame_len=4)
    with pytest.raises(UsageError):
        spectral.taper_window("hamming", 16)


def test_taper_window_shapes():
    rect = spectral.taper_window("rect", 8)
    assert np.array_equal(rect, np.ones(8))
    hann = spectral.taper_window("hann", 8)
    assert hann[0] == 0.0 and hann[-1] == pytest.approx(0.0, abs=1e-15)
    assert hann.max() <= 1.0
    # symmetric taper
    assert np.allclose(hann, hann[::-1], atol=1e-15)


# ---------------------------------------------------------------------------
# dB scaling
# ---------------------------------------------------------------------------

def test_magnitude_db_reference_points():
    bins = np.array([[1.0 + 0j, 10.0 + 0j, 0.0 + 0j]]).T
    db = spectral.magnitude_db(bins, floor_db=-80.0)
    assert db[0, 0] == pytest.approx(0.0, abs=1e-6)
    assert db[1, 0] == pytest.approx(20.0, abs=1e-6)
    assert db[2, 0] == -80.0


def test_magnitude_db_rejects_nonfinite():
    bins = np.array([[np.inf + 0j]])
    with pytest.raises(NumericError):
        spectral.magnitude_db(bins)


# ---------------------------------------------------------------------------
# Colormap and rendering
# ---------------------------------------------------------------------------

def test_colormap_table_properties():
    table = spectral.load_colormap()
    assert table.shape == (256, 3)
    assert table.min() >= 0.0 and table.max() <= 1.0
    # perceptual map: should not be constant anywhere
    assert np.abs(np.diff(table, axis=0)).sum() > 1.0


def test_apply_colormap_hits_table_rows_exactly():
    table = spectral.load_colormap()
    for k in (0, 1, 17, 128, 254, 255):
        rgb = spectral.apply_colormap(np.array([[k / 255.0]]))
        assert np.allclose(rgb[:, 0, 0], table[k], atol=1e-12)


def test_apply_colormap_interpolates_between_rows():
    table = spectral.load_colormap()
    v = (10 + 0.25) / 255.0
    rgb = spectral.apply_colormap(np.array([[v]]))
    expected = table[10] * 0.75 + table[11] * 0.25
    assert np.allclose(rgb[:, 0, 0], expected, atol=1e-9)


def test_bilinear_resize_identity():
    rs = np.random.default_rng(4)
    img = rs.uniform(size=(3, 128, 128))
    out = spectral.bilinear_resize(img, 128, 128)
    assert np.allclose(out, img, atol=1e-12)


def test_bilinear_resize_corners_align():
    rs = np.random.default_rng(5)
    img = rs.uniform(size=(1, 5, 7))
    out = spectral.bilinear_resize(img, 128, 128)
    assert out[0, 0, 0] == pytest.approx(img[0, 0, 0], abs=1e-12)
    assert out[0, 0, -1] == pytest.approx(img[0, 0, -1], abs=1e-12)
    assert out[0, -1, 0] == pytest.approx(img[0, -1, 0], abs=1e-12)
    assert out[0, -1, -1] == pytest.approx(img[0, -1, -1], abs=1e-12)


def test_render_constant_matrix_maps_to_midpoint_color():
    img = spectral.render_image(np.full((33, 65), -37.5))
    mid = spectral.apply_colormap(np.array([[0.5]]))[:, 0, 0]
    for c in range(3):
        channel = img.pixels[c]
        assert np.all(channel == channel[0, 0])
        assert channel[0, 0] == pytest.approx(mid[c], abs=1e-6)


def test_render_checker_center_is_midpoint_color():
    # a 2x2 checker upsamples to ~0.5 in the middle of the image
    img = spectral.render_image(np.array([[0.0, 1.0], [1.0, 0.0]]))
    mid = spectral.apply_colormap(np.array([[0.5]]))[:, 0, 0]
    center = img.pixels[:, 63, 63]
    assert np.abs(center - mid).max() < 0.02


def test_render_output_contract():
    rs = np.random.default_rng(6)
    for _ in range(500):
        f = int(rs.integers(2, 40))
        t = int(rs.integers(2, 70))
        mag = rs.uniform(-80.0, 0.0, size=(f, t))
        img = spectral.render_image(mag)
        assert img.pixels.shape == (3, 128, 128)
        assert img.pixels.dtype == np.float32
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0


def test_render_rejects_nonfinite():
    with pytest.raises(NumericError):
        spectral.render_image(np.array([[0.0, np.nan]]))


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_render_matches_four_gather_formula_bitwise():
    table = spectral.load_colormap()
    rs = np.random.default_rng(11)
    mags = [rs.normal(0.0, 20.0, size=tuple(rs.integers(1, 71, size=2)))
            for _ in range(40)]
    mags += [rs.normal(size=(1, 65)), rs.normal(size=(33, 1)), rs.normal(size=(1, 1)),
             np.full((33, 65), -37.5), np.array([[0.0, 1.0], [1.0, 0.0]])]
    for mag in mags:
        got = spectral.render_image(mag).pixels
        assert _bitwise_equal(got, render_by_formula(mag, table)), mag.shape


def test_bilinear_resize_matches_four_gather_formula_bitwise():
    rs = np.random.default_rng(12)
    cases = [((1, 33, 65), 128, 128), ((3, 33, 65), 7, 200), ((2, 5, 3), 1, 5),
             ((3, 4, 9), 64, 1), ((1, 1, 1), 4, 4), ((1, 1, 9), 3, 3),
             ((2, 9, 1), 3, 7), ((3, 20, 30), 1, 1), ((1, 6, 6), 6, 6)]
    for _ in range(10):
        cases.append(((int(rs.integers(1, 4)), *rs.integers(1, 71, size=2)),
                      *rs.integers(1, 129, size=2)))
    for shape, out_h, out_w in cases:
        img = rs.normal(size=shape)
        got = spectral.bilinear_resize(img, int(out_h), int(out_w))
        assert _bitwise_equal(got, four_gather_resize(img, int(out_h), int(out_w))), \
            (shape, out_h, out_w)


def test_apply_colormap_matches_row_lookup_bitwise():
    table = spectral.load_colormap()
    rs = np.random.default_rng(13)
    edges = np.array([-0.5, 0.0, 1.0 / 255.0, 254.0 / 255.0, 254.5 / 255.0, 1.0, 1.5])
    for norm in (rs.uniform(-0.1, 1.1, size=(128, 128)), rs.uniform(size=(5, 7, 2)),
                 rs.uniform(size=17), edges):
        want = np.moveaxis(rows_colormap(norm, table), -1, 0)
        assert _bitwise_equal(spectral.apply_colormap(norm), want), norm.shape


def test_render_pixels_are_contiguous_float32():
    img = spectral.render_image(np.random.default_rng(14).normal(size=(33, 65)))
    assert img.pixels.dtype == np.float32
    assert img.pixels.flags.c_contiguous


def test_spectral_image_deterministic():
    rs = np.random.default_rng(7)
    w = Window(0, rs.standard_normal(128), 0)
    a = spectral.spectral_image(w)
    b = spectral.spectral_image(w)
    assert np.array_equal(a.pixels, b.pixels)


def test_spectral_image_monotone_in_contrast():
    # same window, louder copy: normalization makes the images identical
    rs = np.random.default_rng(8)
    v = rs.standard_normal(128)
    a = spectral.spectral_image(Window(0, v, 0))
    b = spectral.spectral_image(Window(0, v * 2.0, 0))
    # dB shift is constant, min-max normalization removes it
    assert np.abs(a.pixels - b.pixels).max() < 1e-5


@pytest.mark.parametrize("call", [
    lambda: spectral.stft(np.zeros(32), frame_len=0),
    lambda: spectral.stft(np.zeros(32), frame_len=-2),
    lambda: spectral.taper_window("hann", 1),
    lambda: spectral.taper_window("rect", 0),
    lambda: spectral.render_image(np.zeros((0, 5))),
    lambda: spectral.render_image(np.zeros(5)),
    lambda: spectral.render_image(np.zeros((2, 3, 4))),
    lambda: spectral.bilinear_resize(np.zeros((3, 4)), 8, 8),
], ids=["stft-frame-len-0", "stft-frame-len-negative", "hann-taper-of-1", "rect-taper-of-0",
        "render-empty", "render-1d", "render-3d", "resize-2d"])
def test_spectral_stages_reject_bad_arguments_with_usage_error(call):
    with pytest.raises(UsageError):
        call()


def _window_cases():
    stream = pipeline.derive_acc_magnitude(synthetic.make_stream(n_samples=800, seed=21))
    cases = [(w.values, spectral.SpectralConfig())
             for m in pipeline.PERMUTATIONS[6]
             for w in slide_windows(stream.channels[m], stream.labels, 128, 96)[::3]]
    ecg = cases[0][0]
    # a silent window's dB spectrogram is the floor everywhere, so it takes
    # the constant-matrix path; a constant nonzero one still has a DC peak
    cases += [(np.zeros(128), spectral.SpectralConfig()),
              (np.full(128, 2.5), spectral.SpectralConfig()),
              (ecg, spectral.SpectralConfig(taper="rect")),
              (ecg, spectral.SpectralConfig(hop=2)),
              (ecg, spectral.SpectralConfig(frame_len=32, floor_db=-40.0))]
    return cases


def test_spectral_image_matches_the_formula_chain_bitwise():
    table = spectral.load_colormap()
    constant = 0
    for values, cfg in _window_cases():
        got = spectral.spectral_image(Window(0, values, 0), cfg).pixels
        db = db_spectrogram_by_formula(values, cfg.frame_len, cfg.hop, cfg.taper,
                                       cfg.floor_db)
        constant += db.min() == db.max()
        assert _bitwise_equal(got, render_by_formula(db, table)), cfg
    assert constant == 1


def test_plans_are_read_only_and_shapes_interleave_as_fresh_calls():
    rs = np.random.default_rng(15)
    shapes = [((33, 65), 64, 1), ((17, 49), 32, 2)]
    mags = [rs.normal(0.0, 20.0, size=shape) for shape, _, _ in shapes]
    x = rs.standard_normal(128)

    def both(i):
        _, frame_len, hop = shapes[i]
        return (spectral.render_image(mags[i]).pixels.tobytes(),
                spectral.stft(x, frame_len, hop).tobytes())

    fresh = []
    for i in range(2):
        spectral._stft_plan.cache_clear()
        spectral._resize_plan.cache_clear()
        fresh.append(both(i))
    assert [both(i % 2) for i in range(4)] == fresh * 2

    plans = [spectral._stft_plan(128, 64, 1, "hann"), spectral._colormap_plan(),
             spectral._resize_plan(33, 65, 128, 128)]
    for array in (a for plan in plans for a in plan):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_no_stage_writes_its_input():
    rs = np.random.default_rng(16)
    values = rs.standard_normal(128)
    bins = spectral.stft(values)
    mag = spectral.magnitude_db(bins)
    norm = rs.uniform(-0.1, 1.1, size=(1, 33, 65))
    calls = [(spectral.stft, values), (spectral.magnitude_db, bins),
             (spectral.render_image, mag), (spectral.bilinear_resize, norm, 128, 128),
             (spectral.apply_colormap, norm[0]),
             (spectral.spectral_image, Window(0, values, 0))]
    for fn, arg, *rest in calls:
        before = _digest(values), _digest(bins), _digest(mag), _digest(norm)
        fn(arg, *rest)
        assert (_digest(values), _digest(bins), _digest(mag), _digest(norm)) == before, fn
