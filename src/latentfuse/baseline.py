"""Per-modality baseline: one dedicated residual encoder per signal.

Each modality gets its own feature stack (three stride-2 convolutions with
a residual block after the first two) that maps 3x128x128 spectral images
to the same D x 16 x 16 shape the shared transcoder produces, so the
identical fusion head runs on either system. An encoder is its feature
stack and the store of its weights, nothing else. The baseline exists to be
measured for cost: encode time and MACs depend on shapes, not on trained
weights, so it runs at seeded initialization and has no training path.
Accuracy parity between the two systems is therefore not measured.

The stack is intentionally heavier than the shared encoder (wider at the
high-resolution stages), mirroring the asymmetry this system is meant to
exhibit: per-modality encoders cost more compute and more parameter
memory, and there are M of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nnkernel as nn
from .errors import DataError, UsageError
from .fusion import ClassifierHead
from .spectral import IMAGE_SIZE, SpectralImage
from .vqvae import GRID, image_batch, load_into, read_tensors, write_tensors

BASE_WIDTH = 24


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
    """One modality's feature stack and its weights."""

    features: list[nn.LayerDescriptor]
    store: nn.ParamStore


@dataclass
class BaselineSystem:
    """One modality encoder per modality."""

    encoders: dict[str, ModalityEncoder]
    head: ClassifierHead | None

    def encode(self, modality: str, images: Sequence[SpectralImage]) -> list[np.ndarray]:
        """The modality's own extractor applied to a batch of images, in one pass."""
        if modality not in self.encoders:
            raise UsageError(f"baseline system has no encoder for {modality!r}")
        return list(extract(self.encoders[modality], images))

    def parameter_stores(self, modalities: tuple[str, ...]) -> list[nn.ParamStore]:
        """One store per modality, each belonging to its own encoder."""
        missing = [m for m in modalities if m not in self.encoders]
        if missing:
            raise UsageError(f"baseline system missing encoders for {missing}")
        return [self.encoders[m].store for m in modalities]


def build_encoder(modality: str, embed_dim: int = 16, seed: int = 0) -> ModalityEncoder:
    features = build_feature_stack(modality, embed_dim)
    out = nn.stack_out_shape(features, (3, IMAGE_SIZE, IMAGE_SIZE))
    if out != (embed_dim, GRID, GRID):
        raise UsageError(f"feature stack produces {out}, expected "
                         f"({embed_dim}, {GRID}, {GRID})")
    store = nn.ParamStore()
    nn.init_params(features, store, nn.seed_rng(seed))
    return ModalityEncoder(features, store)


def extract(encoder: ModalityEncoder, images: SpectralImage | Sequence[SpectralImage]
            ) -> np.ndarray:
    """Feature map (D, 16, 16) for one image, the unified latent's shape, or
    (n, D, 16, 16) for a sequence of n, in one pass.

    Map i of a sequence is bitwise the map of images[i] alone.
    """
    feats = nn.stack_infer(encoder.features, encoder.store, image_batch(images))
    return feats[0] if isinstance(images, SpectralImage) else feats


def save_encoder(encoder: ModalityEncoder, path: str) -> None:
    """Write the encoder's tensors in the shared weight-file format."""
    write_tensors(path, dict(encoder.store.values))


def load_extractor(path: str, modality: str | None = None,
                   embed_dim: int | None = None) -> ModalityEncoder:
    """Load a modality encoder for feature extraction; every tensor is required.

    The file names the modality (its `<modality>.c3.w` tensor) and embed_dim
    (that tensor's output channels). A modality or embed_dim given by the
    caller must agree with the file.
    """
    tensors = read_tensors(path)
    last = [name for name in tensors if name.endswith(".c3.w")]
    if len(last) != 1:
        raise DataError(f"{path}: expected one '<modality>.c3.w' tensor, found {last}")
    found, shape = last[0].removesuffix(".c3.w"), tensors[last[0]].shape
    if len(shape) != 4 or shape[0] < 1:
        raise DataError(f"{path}: tensor {last[0]!r} has shape {shape}, expected "
                        f"(embed_dim, {2 * BASE_WIDTH}, 3, 3) with embed_dim >= 1")
    if modality is not None and modality != found:
        raise DataError(f"{path}: holds the {found!r} extractor, not {modality!r}")
    if embed_dim is not None and embed_dim != shape[0]:
        raise DataError(f"{path}: extractor has embed_dim {shape[0]}, not {embed_dim}")
    encoder = build_encoder(found, shape[0], seed=0)
    load_into(encoder.store, tensors, path)
    return encoder
