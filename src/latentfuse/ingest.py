"""Loading, gap repair, resampling, and windowing of multimodal time-series.

The input is CSV with a `timestamp` column plus one column per signal;
empty cells mark missing values. Channels keep an explicit missing mask
rather than a sentinel number because physiological signals can take any
real value. Downstream stages require gap-repaired, uniformly sampled
channels; the functions here are pure and per-channel, so processing
order across channels does not matter.

Windowing places windows on the stride lattice 0, stride, 2*stride, ...
A final zero-filled tail window is appended at the next lattice point
when the full windows do not already cover the signal, so every sample
belongs to at least one window. Window labels are causal: a window takes
the label active at its last real sample.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import binio
from .errors import DataError, UsageError

log = logging.getLogger(__name__)

DEFAULT_WINDOW_LEN = 128
DEFAULT_STRIDE = 96


@dataclass
class Channel:
    """One named signal: values plus a boolean mask of missing entries."""

    name: str
    rate_hz: float
    values: np.ndarray
    missing: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.missing is None:
            self.missing = np.zeros(self.values.shape, dtype=bool)
        else:
            self.missing = np.asarray(self.missing, dtype=bool)
        if self.values.ndim != 1 or self.values.size == 0:
            raise UsageError(f"channel {self.name}: values must be a non-empty 1-d sequence")
        if self.missing.shape != self.values.shape:
            raise UsageError(f"channel {self.name}: missing mask shape mismatch")
        if not self.rate_hz > 0:
            raise UsageError(f"channel {self.name}: rate_hz must be positive")

    def __len__(self) -> int:
        return self.values.size


@dataclass
class MultimodalStream:
    """A set of channels plus label change points on the sample axis.

    labels is an ordered list of (sample_index, label) change points; the
    label at index i is the one set by the latest change point at or
    before i (0 before the first change point).
    """

    channels: dict[str, Channel]
    labels: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        for name, ch in self.channels.items():
            if ch.name != name:
                raise UsageError(f"channel keyed {name!r} is named {ch.name!r}")
        last = -1
        for idx, lab in self.labels:
            if lab not in (0, 1):
                raise UsageError(f"label at index {idx} is {lab}, expected 0 or 1")
            if idx < 0 or idx < last:
                raise UsageError("label indices must be non-negative and non-decreasing")
            last = idx


@dataclass(frozen=True)
class Window:
    start_index: int
    values: np.ndarray
    label: int


def _csv_reader(path: str):
    """csv.reader over a UTF-8 file (`binio.read_text`)."""
    return csv.reader(io.StringIO(binio.read_text(path, "file"), newline=""))


def load_stream(path: str, schema: dict[str, str]) -> MultimodalStream:
    """Parse a CSV file into a MultimodalStream.

    schema maps CSV column names to modality names. A column mapped to
    "label" supplies inline labels (0 or 1, may be sparse). The timestamp
    column must be finite and non-decreasing; the channel rate is inferred
    as (rows - 1) / (t_last - t_first). Signal values must fit float32,
    the dataset's sample type. Errors report 1-based file line numbers
    (header is line 1).
    """
    reader = _csv_reader(path)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if "timestamp" not in header:
        raise DataError(f"{path}: header has no timestamp column")
    for col in schema:
        if col not in header:
            raise DataError(f"{path}: header has no schema column {col!r}")
    ts_pos = header.index("timestamp")
    col_pos = {col: header.index(col) for col in schema}
    f32_max = float(np.finfo(np.float32).max)

    times: list[float] = []
    raw: dict[str, list[float]] = {col: [] for col in schema}
    miss: dict[str, list[bool]] = {col: [] for col in schema}
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: line {line_no}: expected {len(header)} fields, "
                            f"got {len(row)}")
        try:
            t = float(row[ts_pos])
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise DataError(f"{path}: line {line_no}: bad timestamp "
                            f"{row[ts_pos]!r}")
        if times and t < times[-1]:
            raise DataError(f"{path}: line {line_no}: timestamp {t} decreases")
        times.append(t)
        for col, pos in col_pos.items():
            cell = row[pos].strip()
            if cell == "":
                raw[col].append(0.0)
                miss[col].append(True)
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DataError(f"{path}: line {line_no}: bad value {cell!r} "
                                f"in column {col}") from None
            if schema[col] == "label" and v not in (0.0, 1.0):
                raise DataError(f"{path}: line {line_no}: label {cell!r} in column "
                                f"{col} is not 0 or 1")
            if not math.isfinite(v):
                raise DataError(f"{path}: line {line_no}: non-finite value {cell!r} in "
                                f"column {col}")
            if abs(v) > f32_max:
                raise DataError(f"{path}: line {line_no}: value {cell!r} in column "
                                f"{col} overflows float32")
            raw[col].append(v)
            miss[col].append(False)

    if not times:
        raise DataError(f"{path}: no data rows")
    n = len(times)
    rate = (n - 1) / (times[-1] - times[0]) if n > 1 and times[-1] > times[0] else 1.0

    channels: dict[str, Channel] = {}
    labels: list[tuple[int, int]] = []
    for col, modality in schema.items():
        if modality == "label":
            prev = None
            for i, (v, m) in enumerate(zip(raw[col], miss[col])):
                if m:
                    continue
                lab = int(v)
                if lab != prev:
                    labels.append((i, lab))
                    prev = lab
            continue
        if modality in channels:
            raise UsageError(f"duplicate modality {modality!r} in schema")
        channels[modality] = Channel(modality, rate, np.array(raw[col]),
                                     np.array(miss[col]))

    log.debug("loaded %s: %d rows, %.4g Hz, channels %s", path, n, rate,
              sorted(channels))
    return MultimodalStream(channels, labels=labels)


def load_labels(path: str) -> list[tuple[int, int]]:
    """Read a label CSV with header start_index,label into change points."""
    reader = _csv_reader(path)
    out: list[tuple[int, int]] = []
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["start_index", "label"]:
        raise DataError(f"{path}: expected header start_index,label")
    for line_no, row in enumerate(reader, start=2):
        if len(row) != 2:
            raise DataError(f"{path}: line {line_no}: expected 2 fields, got {len(row)}")
        try:
            idx, lab = int(row[0]), int(row[1])
        except ValueError:
            raise DataError(f"{path}: line {line_no}: malformed label row") from None
        if lab not in (0, 1):
            raise DataError(f"{path}: line {line_no}: label must be 0 or 1")
        if idx < 0:
            raise DataError(f"{path}: line {line_no}: start_index is negative")
        if out and idx < out[-1][0]:
            raise DataError(f"{path}: line {line_no}: start_index decreases")
        out.append((idx, lab))
    return out


def label_at(labels: list[tuple[int, int]], index: int) -> int:
    """Label active at a sample index: latest change point at or before it."""
    active = 0
    for idx, lab in labels:
        if idx > index:
            break
        active = lab
    return active


def forward_fill(channel: Channel) -> Channel:
    """Replace missing values with the nearest preceding present value.

    Leading missing values take the first present value, so the result has
    no gaps. Raises DataError when every value is missing.
    """
    if channel.missing.all():
        raise DataError(f"channel {channel.name}: all values missing, cannot fill")
    if not channel.missing.any():
        return replace(channel, values=channel.values.copy(),
                       missing=channel.missing.copy())
    n = len(channel)
    idx = np.where(~channel.missing, np.arange(n), -1)
    idx = np.maximum.accumulate(idx)
    first_valid = int(np.argmin(channel.missing))
    idx[idx < 0] = first_valid
    return replace(channel, values=channel.values[idx],
                   missing=np.zeros(n, dtype=bool))


def resample_uniform(channel: Channel, target_rate: float) -> Channel:
    """Linearly resample a gap-repaired channel onto a uniform grid.

    Output sample j sits at source position j * rate_hz / target_rate;
    values are interpolated between the two neighboring input samples and
    clamped to the endpoints. Resampling at the source rate reproduces the
    input bitwise. Output length is floor((N-1) * target/rate) + 1, i.e.
    grid points up to and including the last input sample.
    """
    if not target_rate > 0:
        raise UsageError("target_rate must be positive")
    if channel.missing.any():
        raise UsageError(f"channel {channel.name}: resample requires gap-repaired input")
    v = channel.values
    n = v.size
    if n == 1:
        return Channel(channel.name, target_rate, v.copy())
    ratio = target_rate / channel.rate_hz
    length = np.floor((n - 1) * ratio + 1e-9) + 1
    if length > 2 ** 32:  # a .lsfd stores start indices as u32
        raise UsageError(f"channel {channel.name}: resample_hz {target_rate:g} from "
                         f"{channel.rate_hz:g} Hz gives {length:.0f} samples, more "
                         f"than 2**32")
    m = int(length)
    pos = np.arange(m, dtype=np.float64) * (channel.rate_hz / target_rate)
    pos = np.clip(pos, 0.0, n - 1)
    i = np.minimum(pos.astype(np.int64), n - 2)
    frac = pos - i
    out = np.where(frac == 0.0, v[i], v[i] * (1.0 - frac) + v[i + 1] * frac)
    return Channel(channel.name, target_rate, out)


def rescale_label_indices(labels: list[tuple[int, int]], rate_hz: float,
                          target_rate: float, new_len: int) -> list[tuple[int, int]]:
    """Move label change points onto the resampled grid (nearest sample)."""
    out: list[tuple[int, int]] = []
    for idx, lab in labels:
        j = int(round(idx * target_rate / rate_hz))
        j = min(max(j, 0), new_len - 1)
        if out and j == out[-1][0]:
            out[-1] = (j, lab)
        else:
            out.append((j, lab))
    return out


def slide_windows(channel: Channel, labels: list[tuple[int, int]] | None = None,
                  window_len: int = DEFAULT_WINDOW_LEN, stride: int = DEFAULT_STRIDE
                  ) -> list[Window]:
    """Cut a channel into fixed-length windows on the stride lattice.

    Start indices are 0, stride, 2*stride, ...; the number of full windows
    is floor((N - window_len)/stride) + 1. When the full windows stop short
    of the end of the signal, one zero-filled tail window is added at the
    next lattice point. Each window's label is the label active at its
    last real sample index.
    """
    if window_len < 1:
        raise UsageError("window_len must be >= 1")
    if not 1 <= stride <= window_len:
        raise UsageError("stride must be in [1, window_len]")
    if channel.missing.any():
        raise UsageError(f"channel {channel.name}: windowing requires gap-repaired input")
    labels = labels or []
    v = channel.values
    n = v.size
    count = (n - window_len) // stride + 1 if n >= window_len else 0

    out: list[Window] = []
    for w in range(count):
        start = w * stride
        lab = label_at(labels, start + window_len - 1)
        out.append(Window(start, v[start:start + window_len].copy(), lab))

    covered_to = (count - 1) * stride + window_len if count else 0
    if covered_to < n:
        start = count * stride
        tail = np.zeros(window_len, dtype=np.float64)
        real = v[start:n]
        tail[:real.size] = real
        lab = label_at(labels, n - 1)
        out.append(Window(start, tail, lab))
    return out


def prepare_stream(stream: MultimodalStream, target_rate: float) -> MultimodalStream:
    """Gap-repair every channel and resample all of them to one rate."""
    channels = {}
    new_len = None
    for name, ch in stream.channels.items():
        repaired = forward_fill(ch)
        resampled = resample_uniform(repaired, target_rate)
        channels[name] = resampled
        new_len = len(resampled) if new_len is None else min(new_len, len(resampled))
    any_rate = next(iter(stream.channels.values())).rate_hz if stream.channels else 1.0
    labels = rescale_label_indices(stream.labels, any_rate, target_rate, new_len or 1)
    return MultimodalStream(channels, labels=labels)


def window_stream(stream: MultimodalStream, window_len: int = DEFAULT_WINDOW_LEN,
                  stride: int = DEFAULT_STRIDE) -> dict[str, list[Window]]:
    """Window every channel; equal start indices line up across channels."""
    return {name: slide_windows(ch, stream.labels, window_len, stride)
            for name, ch in stream.channels.items()}
