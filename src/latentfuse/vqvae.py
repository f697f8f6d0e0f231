"""Vector-quantized autoencoder: the single shared encoder for all modalities.

The model maps 3x128x128 images to a 16x16 grid of codebook indices via
three stride-2 convolutions and two residual blocks; the decoder mirrors
the encoder with transposed convolutions. After training on generic images
the model is frozen and reused unchanged for every modality, which is the
property the rest of the pipeline (and its cost accounting) leans on.

Training minimizes the standard three-term objective
    mean((x - x_hat)^2) + mean((sg(z_e) - e)^2) + beta * mean((z_e - sg(e))^2)
with straight-through gradients through quantization: the decoder's input
gradient flows to the encoder as if z_q were z_e, and the commitment term
adds beta * 2 * (z_e - z_q) / numel. Codes unused for 200 consecutive
steps are re-seeded to a random encoder output from the current batch
(their Adam moments are reset), which keeps small codebooks from
collapsing onto a few entries.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import binio
from . import nnkernel as nn
from .errors import DataError, NumericError, TruncatedPayloadError, UsageError
from .spectral import IMAGE_SIZE, SpectralImage

log = logging.getLogger(__name__)

GRID = 16
DEAD_CODE_WINDOW = 200

_WEIGHTS_MAGIC = b"LSFW"
_WEIGHTS_VERSION = 1


@dataclass
class Codebook:
    """K x D embedding table; rows are the discrete codes."""

    entries: np.ndarray

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def d(self) -> int:
        return self.entries.shape[1]

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """The (D, h, w) tensor whose cell (i, j) is row indices[i, j], bitwise,
        or the (n, D, h, w) batch of an (n, h, w) index array; either one a
        view over channels-last memory."""
        rows = self.entries[indices.reshape(-1)].reshape(*indices.shape, self.d)
        return np.moveaxis(rows, -1, -3)


@dataclass
class LatentCode:
    indices: np.ndarray
    quantized: np.ndarray


@dataclass
class VqLossReport:
    reconstruction: float
    codebook_term: float
    commitment_term: float

    @property
    def total(self) -> float:
        return self.reconstruction + self.codebook_term + self.commitment_term


@dataclass
class VqVaeConfig:
    codebook_size: int = 128
    embed_dim: int = 16
    beta: float = 0.25
    lr: float = 2e-3
    steps: int = 500
    batch: int = 8
    seed: int = 0


@dataclass
class VqVaeModel:
    encoder: list[nn.LayerDescriptor]
    decoder: list[nn.LayerDescriptor]
    store: nn.ParamStore
    codebook: Codebook

    @property
    def embed_dim(self) -> int:
        return self.codebook.d


def build_encoder(embed_dim: int) -> list[nn.LayerDescriptor]:
    """Three stride-2 halvings (128 -> 16) followed by two residual blocks."""
    return [
        nn.conv2d("enc.c1", 3, 32, 4, 2, 1), nn.relu(),
        nn.conv2d("enc.c2", 32, 64, 4, 2, 1), nn.relu(),
        nn.conv2d("enc.c3", 64, embed_dim, 4, 2, 1),
        nn.residual_block("enc.r1", embed_dim),
        nn.residual_block("enc.r2", embed_dim),
    ]


def build_decoder(embed_dim: int) -> list[nn.LayerDescriptor]:
    return [
        nn.residual_block("dec.r1", embed_dim),
        nn.residual_block("dec.r2", embed_dim),
        nn.conv_transpose2d("dec.t1", embed_dim, 64, 4, 2, 1), nn.relu(),
        nn.conv_transpose2d("dec.t2", 64, 32, 4, 2, 1), nn.relu(),
        nn.conv_transpose2d("dec.t3", 32, 3, 4, 2, 1), nn.sigmoid(),
    ]


def build_model(codebook_size: int = 128, embed_dim: int = 16, seed: int = 0,
                with_decoder: bool = True) -> VqVaeModel:
    """Seeded model construction; equal seeds give bitwise-equal parameters."""
    if codebook_size < 2:
        raise UsageError("codebook needs at least 2 entries")
    if embed_dim < 1:
        raise UsageError(f"embed_dim must be >= 1, got {embed_dim}")
    encoder = build_encoder(embed_dim)
    decoder = build_decoder(embed_dim) if with_decoder else []
    store = nn.ParamStore()
    rng = nn.seed_rng(seed)
    nn.init_params(encoder, store, rng)
    nn.init_params(decoder, store, rng)
    scale = float(np.sqrt(1.0 / embed_dim))
    entries = ((rng.uniform((codebook_size, embed_dim)) * 2.0 - 1.0) * scale)
    store.add("codebook", entries.astype(np.float32))
    return VqVaeModel(encoder, decoder, store, Codebook(store.values["codebook"]))


def encode(model: VqVaeModel, images: SpectralImage | Sequence[SpectralImage]
           ) -> np.ndarray:
    """Pre-quantization latent z_e: (D, 16, 16) for one image, (n, D, 16, 16)
    for a sequence of n, in one encoder pass.

    Latent i of a sequence is bitwise the latent of images[i] alone.
    """
    z = nn.stack_infer(model.encoder, model.store, image_batch(images))
    if z.shape[1:] != (model.embed_dim, GRID, GRID):
        raise UsageError(f"encoder produced {z.shape[1:]}, expected "
                         f"({model.embed_dim}, {GRID}, {GRID})")
    return z[0] if isinstance(images, SpectralImage) else z


def image_batch(images: SpectralImage | Sequence[SpectralImage]) -> np.ndarray:
    """One image, or a sequence of n, as a float32 (n, 3, H, W) encoder input."""
    if isinstance(images, SpectralImage):
        return np.asarray(images.pixels[None], dtype=np.float32)
    if not images:
        raise UsageError("no images to encode")
    return np.asarray(np.stack([im.pixels for im in images]), dtype=np.float32)


def quantize(z_e: np.ndarray, codebook: Codebook) -> LatentCode:
    """Nearest codebook entry per grid cell; ties go to the lowest index.

    z_e is one (D, h, w) latent or an (n, D, h, w) batch of them, searched
    in one pass; latent i of a batch gets bitwise the codes and quantized
    tensor it gets alone, since the search is exact per cell. quantized is
    built by table lookup, so each of its columns equals the selected
    codebook row bitwise. The (cells, D) rows searched are a free view of a
    channels-last z_e, such as `encode` returns.
    """
    if z_e.ndim not in (3, 4):
        raise UsageError(f"latent must be (D, h, w) or (n, D, h, w), got shape {z_e.shape}")
    d = z_e.shape[-3]
    if d != codebook.d:
        raise UsageError(f"latent dim {d} does not match codebook dim {codebook.d}")
    cells = np.moveaxis(z_e, -3, -1)
    indices = _nearest_codes(cells.reshape(-1, d), codebook.entries).reshape(cells.shape[:-1])
    return LatentCode(indices, codebook.lookup(indices))


def code_usage(indices: np.ndarray, k: int) -> tuple[int, float]:
    """How many of the k codes the indices use, and the perplexity
    exp(-sum p log p) of their code frequencies p (van den Oord et al. 2017):
    k when every code is used equally often, 1 when one code is."""
    counts = np.bincount(indices.reshape(-1), minlength=k)
    p = counts[counts > 0] / max(int(counts.sum()), 1)
    return int(p.size), float(np.exp(-np.sum(p * np.log(p))))


def _nearest_codes(vecs: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Index of the nearest row of `entries` (K, D) for each row of `vecs` (N, D).

    The result is, bitwise, the argmin of the float64 difference form
        f_k = sum_j (v_j - e_kj)^2      (summed j = 0, 1, ..., D-1 in order)
    with ties to the lowest index, i.e. what tests/helpers.exhaustive_nearest
    scans for; it is found in two passes.

    1. GEMM form. s_k = |e_k|^2 - 2 v.e_k, one (N, D + 1) x (D + 1, K)
       float64 matmul of the rows [v, 1] and the codes [-2 e_k, |e_k|^2];
       argmin_k s_k = argmin_k |v - e_k|^2 since |v|^2 is constant per row.
       Take the best code b and the runner-up score s_2.
    2. Certified re-check. With u = 2^-53, gamma_n = n u / (1 - n u) and
       S = |v|^2 + max_k |e_k|^2, the usual dot-product bound (any summation
       order, with or without FMA) gives, for the norm's D terms and then
       the product's D + 1 (the factors -2 and 1 are exact),
           |s_k - (d_k - |v|^2)| <= gamma_D |e_k|^2
                                    + gamma_{D+1} ((1 + gamma_D)|e_k|^2 + 2|v||e_k|)
                                 <= 3.01 gamma_{D+1} S,
       and each of f_k's D terms carries three roundings before D - 1
       additions of nonnegative numbers, so
           |f_k - d_k| <= gamma_{D+2} d_k <= 2 gamma_{D+2} S,
       where d_k = |v - e_k|^2 exactly. Both errors together are below
       E = 6 gamma_{D+2} S, so if s_2 - s_b > 2E then f_k > f_b for every
       k != b and b is the float64 answer. The check below uses
       8 (D + 2) eps64 S (eps64 = 2u), which is >= 2E with room for the
       rounding of S itself, plus float64's smallest normal to cover
       underflow. Every other row (near-ties, exact ties, duplicated
       codebook rows, non-finite values) is re-scored over all K codes in
       the difference form and takes numpy's first argmin, which is the
       lowest index.

    The inputs are converted to float64 (exactly, for float32 data); the
    float64 scores are N x K, so no N x K x D temporary is ever built.
    """
    n, d = vecs.shape
    k = entries.shape[0]
    rows = np.empty((n, d + 1))
    rows[:, :d] = vecs
    rows[:, d] = 1.0
    codes = np.empty((k, d + 1))
    codes[:, :d] = entries
    code_norms = np.einsum("kd,kd->k", codes[:, :d], codes[:, :d])
    codes[:, d] = code_norms
    codes[:, :d] *= -2.0
    scores = rows @ codes.T
    best = np.argmin(scores, axis=1)
    # the best and runner-up scores of each row, by flat index into scores
    at = np.arange(0, n * k, k)
    at += best
    best_score = scores.take(at)
    scores.put(at, np.inf)
    at -= best
    at += np.argmin(scores, axis=1)
    gap = scores.take(at)
    gap -= best_score
    bound = np.einsum("nd,nd->n", rows[:, :d], rows[:, :d])
    bound += code_norms.max()
    bound *= 8 * (d + 2) * np.finfo(np.float64).eps
    bound += np.finfo(np.float64).tiny
    near = np.flatnonzero(~(gap > bound))
    if near.size:
        v = rows[near]
        table = np.asarray(entries, dtype=np.float64)
        dist = np.zeros((near.size, k))
        for j in range(d):
            dist += (v[:, j, None] - table[None, :, j]) ** 2
        best[near] = np.argmin(dist, axis=1)
    return best


def decode(model: VqVaeModel, quantized: np.ndarray) -> np.ndarray:
    """Reconstruction in (0,1) of shape (3, 128, 128) from a quantized latent."""
    if not model.decoder:
        raise UsageError("model has no decoder weights (inference-only file)")
    x = nn.stack_infer(model.decoder, model.store,
                       np.asarray(quantized[None], dtype=np.float32))
    return x[0]


def encode_image(model: VqVaeModel, image: SpectralImage) -> LatentCode:
    """encode + quantize in one call; the pipeline-facing entry point."""
    return quantize(encode(model, image), model.codebook)


def vq_loss(x: np.ndarray, x_hat: np.ndarray, z_e: np.ndarray, z_q: np.ndarray,
            beta: float = 0.25) -> VqLossReport:
    """The three loss terms, each an elementwise mean, accumulated in float64."""
    if x.shape != x_hat.shape or z_e.shape != z_q.shape:
        raise UsageError(f"shape mismatch: x {x.shape} vs x_hat {x_hat.shape}, "
                         f"z_e {z_e.shape} vs z_q {z_q.shape}")
    recon = float(np.mean((x.astype(np.float64) - x_hat.astype(np.float64)) ** 2))
    code = float(np.mean((z_e.astype(np.float64) - z_q.astype(np.float64)) ** 2))
    return VqLossReport(recon, code, beta * code)


def _quantize_batch(z_e: np.ndarray, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-code lookup for a (B, D, H, W) batch; per image it picks the
    codes `quantize` picks. Returns flat (B*H*W,) indices and z_q, whose
    memory is channels-last like the encoder's output; the rows searched
    are a free view of a channels-last z_e."""
    b, d, h, w = z_e.shape
    indices = _nearest_codes(z_e.transpose(0, 2, 3, 1).reshape(-1, d), entries)
    return indices, Codebook(entries).lookup(indices.reshape(b, h, w))


def _channels_last_batch(images: Sequence[np.ndarray]) -> np.ndarray:
    """Stack (1, C, H, W) images into one (n, C, H, W) batch whose memory is
    channels-last, like every image a layer produces, so the loss sums run
    in the order they run on a whole-batch pass."""
    return np.concatenate([im.transpose(0, 2, 3, 1) for im in images]).transpose(0, 3, 1, 2)


def train_vqvae(dataset: list[SpectralImage] | np.ndarray,
                cfg: VqVaeConfig = VqVaeConfig()) -> tuple[VqVaeModel, list[VqLossReport]]:
    """Train a fresh model on a set of 3x128x128 images.

    Returns the trained model and one VqLossReport per step, evaluated on
    that step's batch before its parameter update (so curve[0] reflects the
    seeded initialization). Batches are drawn with replacement from a
    deterministic stream; equal configs give bitwise-equal models. A
    float32 array is used as given, never written: each batch is a copy.

    Each image of a step's batch is one window-map item: encoder, quantizer
    and decoder forward, then decoder and encoder backward into a GradTape
    of its own, with the loss gradients scaled by the whole batch's sizes.
    The tapes are added into the store in image order, so the bits do not
    depend on the runner count.
    """
    if cfg.batch < 1:
        raise UsageError(f"batch must be >= 1, got {cfg.batch}")
    if cfg.steps < 0:
        raise UsageError(f"steps must be >= 0, got {cfg.steps}")
    if isinstance(dataset, np.ndarray):
        images = np.asarray(dataset, dtype=np.float32)
    else:
        images = np.asarray(np.stack([im.pixels for im in dataset]), dtype=np.float32)
    if images.ndim != 4 or images.shape[1:] != (3, IMAGE_SIZE, IMAGE_SIZE):
        raise UsageError(f"training images must be (N, 3, {IMAGE_SIZE}, {IMAGE_SIZE}), "
                         f"got {images.shape}")
    n = images.shape[0]
    if n == 0:
        raise UsageError("empty training set")
    # each batch is gathered in one copy into channels-last memory, the format
    # of every activation the model produces, whatever the images' memory
    # order: enc.c1 pads it with contiguous copies, and the loss terms and
    # their gradients see one layout, so the bits do not depend on the input's
    channels_last = images.transpose(0, 2, 3, 1)
    batch_rows = np.empty((cfg.batch,) + channels_last.shape[1:], dtype=np.float32)

    model = build_model(cfg.codebook_size, cfg.embed_dim, cfg.seed)
    store = model.store
    entries = store.values["codebook"]
    rng = nn.seed_rng(cfg.seed + 1)
    last_used = np.zeros(cfg.codebook_size, dtype=np.int64)
    curve: list[VqLossReport] = []

    def image_step(x: np.ndarray):
        z_e, enc_caches = nn.stack_forward(model.encoder, store, x)
        flat_idx, z_q = _quantize_batch(z_e, entries)
        x_hat, dec_caches = nn.stack_forward(model.decoder, store, z_q)
        # reconstruction path: through decoder, then straight-through to z_e;
        # each loss term is a mean over the batch, so it scales by the batch
        tape = nn.GradTape(store)
        gx_hat = (2.0 / (cfg.batch * x.size)) * (x_hat - x)
        dz_q = nn.stack_backward(model.decoder, tape, dec_caches,
                                 gx_hat.astype(np.float32))
        dz_e = dz_q + cfg.beta * (2.0 / (cfg.batch * z_e.size)) * (z_e - z_q)
        nn.stack_backward(model.encoder, tape, enc_caches, dz_e.astype(np.float32),
                          need_grad_in=False)
        return z_e, flat_idx, z_q, x_hat, tape.grads

    for step in range(cfg.steps):
        idx = rng.integers(n, cfg.batch)
        for row, i in zip(batch_rows, idx):
            np.copyto(row, channels_last[i])
        x = batch_rows.transpose(0, 3, 1, 2)
        z_e, flat_idx, z_q, x_hat, tapes = zip(
            *nn.map_windows(image_step, [x[i:i + 1] for i in range(cfg.batch)]))
        z_e, z_q, x_hat = map(_channels_last_batch, (z_e, z_q, x_hat))
        flat_idx = np.concatenate(flat_idx)

        report = vq_loss(x, x_hat, z_e, z_q, cfg.beta)
        if not np.isfinite(report.total):
            raise NumericError(f"non-finite loss at step {step}")
        curve.append(report)
        for grads in tapes:
            for name, g in grads:
                store.accumulate(name, g)

        # codebook term: pulls each used entry toward its assigned vectors
        vecs = z_e.transpose(0, 2, 3, 1).reshape(-1, cfg.embed_dim)
        gcb = np.zeros_like(entries)
        np.add.at(gcb, flat_idx, (2.0 / z_e.size) * (entries[flat_idx] - vecs))
        store.accumulate("codebook", gcb)

        nn.adam_step(store, cfg.lr, t=step + 1)

        last_used[np.unique(flat_idx)] = step
        dead = np.nonzero(step - last_used >= DEAD_CODE_WINDOW)[0]
        if dead.size:
            picks = rng.integers(vecs.shape[0], dead.size)
            entries[dead] = vecs[picks]
            store.m["codebook"][dead] = 0
            store.v["codebook"][dead] = 0
            last_used[dead] = step
            log.debug("step %d: re-seeded %d dead codes", step, dead.size)

    return model, curve


def write_loss_curve(path: str, curve: list[VqLossReport]) -> None:
    """CSV with columns step,reconstruction,codebook,commitment,total."""
    with open(path, "w") as fh:
        fh.write("step,reconstruction,codebook,commitment,total\n")
        for i, r in enumerate(curve):
            fh.write(f"{i},{r.reconstruction:.10g},{r.codebook_term:.10g},"
                     f"{r.commitment_term:.10g},{r.total:.10g}\n")


# ---------------------------------------------------------------------------
# Weight file format
# ---------------------------------------------------------------------------

def write_tensors(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Serialize named float32 tensors (little-endian, row-major)."""
    with open(path, "wb") as fh:
        fh.write(_WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", _WEIGHTS_VERSION, len(tensors)))
        for name, value in tensors.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", value.ndim))
            for dim in value.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def read_tensors(path: str) -> dict[str, np.ndarray]:
    data, offset = binio.read_file(path, _WEIGHTS_MAGIC, _WEIGHTS_VERSION,
                                   "weight file", "re-run the training command")
    (count,), offset = binio.unpack("<I", data, offset, path, "header")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        what = f"header of tensor {len(tensors)}"
        name, offset = binio.read_name(data, offset, path, what)
        (rank,), offset = binio.unpack("<B", data, offset, path, what)
        dims, offset = binio.unpack(f"<{rank}I", data, offset, path, what)
        n_bytes = math.prod(dims) * 4
        payload = data[offset:offset + n_bytes]
        if len(payload) < n_bytes:
            raise TruncatedPayloadError(f"{path}: truncated payload for tensor "
                                        f"{name!r} ({len(payload)}/{n_bytes} bytes)")
        offset += n_bytes
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        except ValueError:
            # more dimensions than numpy supports, or a zero-size shape whose
            # other dimensions overflow its size computation
            raise DataError(f"{path}: tensor {name!r} has unsupported shape "
                            f"{dims}") from None
    return tensors


def save_model(model: VqVaeModel, path: str, include_decoder: bool = True) -> None:
    """Write model weights; set include_decoder=False for an encode-only file."""
    tensors = {}
    for name, value in model.store.values.items():
        if not include_decoder and name.startswith("dec."):
            continue
        tensors[name] = value
    write_tensors(path, tensors)


def load_into(store: nn.ParamStore, tensors: dict[str, np.ndarray], path: str) -> None:
    """Copy a weight file's tensors into `store`, whose names and shapes rule.

    Every mismatch is a DataError naming `path`: a store tensor the file
    lacks, a tensor whose shape differs from the store's, or a file tensor
    the store has no place for.
    """
    for name, value in store.values.items():
        if name not in tensors:
            raise DataError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != value.shape:
            raise DataError(f"{path}: tensor {name!r} has shape "
                            f"{tensors[name].shape}, expected {value.shape}")
        value[...] = tensors[name]
    extra = set(tensors) - set(store.values)
    if extra:
        raise DataError(f"{path}: unexpected tensors {sorted(extra)}")


def load_model(path: str) -> VqVaeModel:
    """Rebuild a model from a weight file.

    The architecture is implied by the codebook shape (K, D); decoder
    weights are optional (their absence means an inference-only model).
    """
    tensors = read_tensors(path)
    if "codebook" not in tensors:
        raise DataError(f"{path}: weight file has no codebook tensor")
    if tensors["codebook"].ndim != 2:
        raise DataError(f"{path}: codebook has shape {tensors['codebook'].shape}, "
                        f"expected (K, D)")
    k, d = tensors["codebook"].shape
    if k < 2 or d < 1:
        raise DataError(f"{path}: codebook has shape {(k, d)}, expected at least "
                        f"2 codes of dimension at least 1")
    has_decoder = any(name.startswith("dec.") for name in tensors)
    model = build_model(k, d, seed=0, with_decoder=has_decoder)
    load_into(model.store, tensors, path)
    return model
