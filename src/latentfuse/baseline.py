"""Per-modality baseline: one dedicated residual encoder per signal.

Each modality gets its own feature stack (three stride-2 convolutions with
a residual block after the first two) that maps 3x128x128 spectral images
to the same D x 16 x 16 shape the shared transcoder produces, so the
identical fusion head runs on either system. Encoders are pretrained with
a small supervised tail (global mean pool + dense to 2 logits); extract
then runs the frozen feature layers alone and never applies the tail.

The stack is intentionally heavier than the shared encoder (wider at the
high-resolution stages), mirroring the asymmetry this system is meant to
exhibit: per-modality encoders cost more compute and more parameter
memory, and there are M of them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nnkernel as nn
from .errors import NumericError, UsageError
from .fusion import ClassifierHead
from .spectral import IMAGE_SIZE, SpectralImage
from .vqvae import GRID, load_into, read_tensors, write_tensors

log = logging.getLogger(__name__)

BASE_WIDTH = 24
PRETRAIN_SAMPLES = 1000


def build_feature_stack(modality: str, embed_dim: int = 16) -> list[nn.LayerDescriptor]:
    """Residual feature stack mapping 3x128x128 -> embed_dim x 16 x 16."""
    w1, w2 = BASE_WIDTH, 2 * BASE_WIDTH
    return [
        nn.conv2d(f"{modality}.c1", 3, w1, 3, 2, 1), nn.relu(),
        nn.residual_block(f"{modality}.r1", w1),
        nn.conv2d(f"{modality}.c2", w1, w2, 3, 2, 1), nn.relu(),
        nn.residual_block(f"{modality}.r2", w2),
        nn.conv2d(f"{modality}.c3", w2, embed_dim, 3, 2, 1),
    ]


@dataclass
class ModalityEncoder:
    """Feature stack plus the pretraining tail (pool + dense to 2 logits)."""

    features: list[nn.LayerDescriptor]
    tail: nn.LayerDescriptor
    store: nn.ParamStore


@dataclass
class BaselineSystem:
    """One modality encoder per modality; only its feature layers run."""

    encoders: dict[str, ModalityEncoder]
    head: ClassifierHead | None

    def encode(self, modality: str, image: SpectralImage) -> np.ndarray:
        """The modality's own extractor applied to one image."""
        if modality not in self.encoders:
            raise UsageError(f"baseline system has no encoder for {modality!r}")
        return extract(self.encoders[modality], image)

    def parameter_stores(self, modalities: tuple[str, ...]) -> list[nn.ParamStore]:
        """One store per modality, each belonging to its own encoder."""
        missing = [m for m in modalities if m not in self.encoders]
        if missing:
            raise UsageError(f"baseline system missing encoders for {missing}")
        return [self.encoders[m].store for m in modalities]


@dataclass
class PretrainConfig:
    lr: float = 1e-3
    epochs: int = 10
    batch: int = 16
    seed: int = 0
    samples: int = PRETRAIN_SAMPLES


def build_encoder(modality: str, embed_dim: int = 16, seed: int = 0) -> ModalityEncoder:
    features = build_feature_stack(modality, embed_dim)
    out = nn.stack_out_shape(features, (3, IMAGE_SIZE, IMAGE_SIZE))
    if out != (embed_dim, GRID, GRID):
        raise UsageError(f"feature stack produces {out}, expected "
                         f"({embed_dim}, {GRID}, {GRID})")
    tail = nn.dense(f"{modality}.tail", embed_dim, 2)
    store = nn.ParamStore()
    rng = nn.seed_rng(seed)
    nn.init_params(features, store, rng)
    nn.init_params([tail], store, rng)
    return ModalityEncoder(features, tail, store)


def _forward_with_tail(encoder: ModalityEncoder, x: np.ndarray):
    """Features -> global mean pool over the grid -> 2-class logits."""
    feats, caches = nn.stack_forward(encoder.features, encoder.store, x)
    pooled = feats.mean(axis=(2, 3))
    logits, tail_cache = nn.forward(encoder.tail, encoder.store, pooled)
    return feats, logits, (caches, tail_cache, feats.shape)


def _backward_with_tail(encoder: ModalityEncoder, cache, grad_logits: np.ndarray) -> None:
    caches, tail_cache, feat_shape = cache
    gpool = nn.backward(encoder.tail, encoder.store, tail_cache, grad_logits)
    cells = feat_shape[2] * feat_shape[3]
    gfeats = np.broadcast_to(gpool[:, :, None, None] / cells, feat_shape)
    nn.stack_backward(encoder.features, encoder.store, caches,
                      gfeats.astype(np.float32), need_grad_in=False)


def pretrain_encoder(modality: str, images: np.ndarray, labels: np.ndarray,
                     cfg: PretrainConfig = PretrainConfig(),
                     embed_dim: int = 16) -> tuple[ModalityEncoder, list[float]]:
    """Supervised pretraining of one modality encoder on labeled images.

    Uses at most cfg.samples images, picked as the first slice of a seeded
    shuffle (with a warning when fewer are available). Returns the encoder
    with its tail retained, plus the per-epoch mean training loss.
    """
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if images.ndim != 4 or images.shape[1:] != (3, IMAGE_SIZE, IMAGE_SIZE):
        raise UsageError(f"pretraining images must be (N, 3, {IMAGE_SIZE}, "
                         f"{IMAGE_SIZE}), got {images.shape}")
    if images.shape[0] != labels.shape[0]:
        raise UsageError("images and labels disagree on sample count")
    if len(np.unique(labels)) < 2:
        raise UsageError(f"pretraining set for {modality} has a single class")

    rng = nn.seed_rng(cfg.seed)
    perm = rng.shuffle(images.shape[0])
    if images.shape[0] < cfg.samples:
        log.warning("%s: only %d labeled images available (wanted %d); using all",
                    modality, images.shape[0], cfg.samples)
    take = perm[:min(cfg.samples, images.shape[0])]
    images, labels = images[take], labels[take]
    if len(np.unique(labels)) < 2:
        raise UsageError(f"pretraining subsample for {modality} has a single class")

    encoder = build_encoder(modality, embed_dim, cfg.seed)
    n = images.shape[0]
    curve: list[float] = []
    t = 0
    for epoch in range(cfg.epochs):
        order = rng.shuffle(n)
        losses = []
        for lo in range(0, n, cfg.batch):
            idx = order[lo:lo + cfg.batch]
            _, logits, cache = _forward_with_tail(encoder, images[idx])
            loss, dlogits = nn.softmax_cross_entropy(logits, labels[idx])
            if not np.isfinite(loss):
                raise NumericError(f"{modality}: non-finite pretraining loss in "
                                   f"epoch {epoch}")
            losses.append(loss)
            _backward_with_tail(encoder, cache, dlogits)
            t += 1
            nn.adam_step(encoder.store, cfg.lr, t=t)
        curve.append(float(np.mean(losses)))
        log.debug("%s epoch %d: loss %.4f", modality, epoch, curve[-1])
    return encoder, curve


def pretrain_accuracy(encoder: ModalityEncoder, images: np.ndarray,
                      labels: np.ndarray, batch: int = 32) -> float:
    """Classification accuracy of the encoder-plus-tail on labeled images."""
    hits = 0
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    for lo in range(0, images.shape[0], batch):
        _, logits, _ = _forward_with_tail(encoder, images[lo:lo + batch])
        hits += int((np.argmax(logits, axis=1) == labels[lo:lo + batch]).sum())
    return hits / images.shape[0]


def extract(encoder: ModalityEncoder, image: SpectralImage) -> np.ndarray:
    """Feature map (D, 16, 16) for one image from the feature layers alone
    (never the tail); matches the unified latent shape."""
    feats, _ = nn.stack_forward(encoder.features, encoder.store,
                                image.pixels[None].astype(np.float32))
    return feats[0]


def save_encoder(encoder: ModalityEncoder, path: str) -> None:
    """Write the encoder's tensors, tail included, in the shared weight-file format."""
    write_tensors(path, dict(encoder.store.values))


def load_extractor(path: str, modality: str, embed_dim: int = 16) -> ModalityEncoder:
    """Load a pretrained modality encoder for feature extraction.

    The pretraining tail is optional, so a full checkpoint and a
    features-only file load alike.
    """
    encoder = build_encoder(modality, embed_dim, seed=0)
    tail = [name for name in encoder.store.names() if ".tail." in name]
    load_into(encoder.store, read_tensors(path), path, optional=tail)
    return encoder
