"""Latent fusion and sequence classification.

Fusion is channel-axis concatenation of per-modality latents in a caller-
fixed modality order, so block m of the fused tensor is modality m's
D-channel latent, recoverable bitwise by slicing. The classifier head is
deliberately small: two stride-2 convolutions shared across time steps, a
single gated recurrent cell over the sequence, and a dense layer to one
logit. Training uses binary cross-entropy on the logit.

evaluate() reports accuracy, F1 and AUC plus the raw confusion counts.
AUC uses the rank formulation with mean ranks for ties; when the dataset
lacks one of the classes AUC is None rather than a made-up number.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import nnkernel as nn
from .errors import DataError, NumericError, UsageError
from .vqvae import GRID, load_into, read_tensors, write_tensors

log = logging.getLogger(__name__)

HEAD_CHANNELS = 16
HEAD_HIDDEN = 64


@dataclass
class FusedLatent:
    """(M*D) x grid x grid tensor; channel block m belongs to modality m."""

    tensor: np.ndarray
    modality_order: tuple[str, ...]


@dataclass
class SequenceSample:
    steps: list[FusedLatent]
    label: int


@dataclass
class Metrics:
    accuracy: float
    f1: float
    auc: float | None
    tp: int
    fp: int
    tn: int
    fn: int

    def to_json(self) -> str:
        return json.dumps({"accuracy": self.accuracy, "f1": self.f1,
                           "auc": self.auc, "tp": self.tp, "fp": self.fp,
                           "tn": self.tn, "fn": self.fn})


def fuse(latents: Mapping[str, np.ndarray], order: Sequence[str]) -> FusedLatent:
    """Concatenate per-modality (D, g, g) latent tensors along the channel axis.

    Both systems' encode returns such an array (the unified system's is the
    quantized latent), so one head serves either.
    """
    if not order:
        raise UsageError("modality order must not be empty")
    blocks = []
    d = None
    for name in order:
        if name not in latents:
            raise UsageError(f"missing modality {name!r} in latents")
        tensor = latents[name]
        if tensor.ndim != 3:
            raise UsageError(f"latent for {name!r} must be 3-d, got {tensor.shape}")
        if d is None:
            d = tensor.shape[0]
        elif tensor.shape[0] != d:
            raise UsageError(f"latent dim mismatch: {name!r} has {tensor.shape[0]} "
                             f"channels, expected {d}")
        blocks.append(tensor)
    return FusedLatent(np.concatenate(blocks, axis=0), tuple(order))


def group_sequences(steps: Sequence[FusedLatent], labels: Sequence[int],
                    seq_len: int) -> list[SequenceSample]:
    """Consecutive non-overlapping chunks of seq_len steps; a short tail is dropped.

    Each chunk takes the label of its final step (causal labeling).
    """
    if seq_len < 1:
        raise UsageError(f"seq_len must be >= 1, got {seq_len}")
    return [SequenceSample(list(steps[lo:lo + seq_len]), labels[lo + seq_len - 1])
            for lo in range(0, len(steps) - seq_len + 1, seq_len)]


def unfuse(fused: FusedLatent) -> dict[str, np.ndarray]:
    """Slice the fused tensor back into its per-modality blocks."""
    d = fused.tensor.shape[0] // len(fused.modality_order)
    return {name: fused.tensor[i * d:(i + 1) * d].copy()
            for i, name in enumerate(fused.modality_order)}


# ---------------------------------------------------------------------------
# Classifier head
# ---------------------------------------------------------------------------

@dataclass
class ClassifierHead:
    conv: list[nn.LayerDescriptor]
    cell: nn.LayerDescriptor
    out: nn.LayerDescriptor
    store: nn.ParamStore


def head_layers(in_channels: int, grid: int = GRID, hidden: int = HEAD_HIDDEN
                ) -> tuple[list[nn.LayerDescriptor], nn.LayerDescriptor,
                           nn.LayerDescriptor]:
    """The head's conv stack (shared across time steps), recurrent cell and
    output layer for fused latents of shape (in_channels, grid, grid)."""
    conv = [
        nn.conv2d("head.c1", in_channels, HEAD_CHANNELS, 3, 2, 1), nn.relu(),
        nn.conv2d("head.c2", HEAD_CHANNELS, HEAD_CHANNELS, 3, 2, 1), nn.relu(),
    ]
    x_dim = int(np.prod(nn.stack_out_shape(conv, (in_channels, grid, grid))))
    cell = nn.recurrent_cell("head.cell", x_dim, hidden)
    return conv, cell, nn.dense("head.out", hidden, 1)


def build_head(in_channels: int, grid: int = GRID, hidden: int = HEAD_HIDDEN,
               seed: int = 0) -> ClassifierHead:
    """Seeded head for fused latents of shape (in_channels, grid, grid)."""
    conv, cell, out = head_layers(in_channels, grid, hidden)
    store = nn.ParamStore()
    rng = nn.seed_rng(seed)
    nn.init_params(conv, store, rng)
    nn.init_params([cell, out], store, rng)
    return ClassifierHead(conv, cell, out, store)


def _map_steps(head: ClassifierHead, samples: Sequence[SequenceSample], run) -> list:
    """run(t, x_t) for each step t, through the window map.

    The batch is checked first, on the calling thread. Each map item then
    gathers its own step batch x_t, step t of every sample stacked in the
    head's parameter dtype and in the tensors' memory order, so at most one
    step batch per runner is alive and no (B, L, C, g, g) array is built.
    """
    seq_len = len(samples[0].steps)
    if seq_len < 1:
        raise UsageError("a sequence sample needs at least one step")
    shape = samples[0].steps[0].tensor.shape
    for s in samples:
        if len(s.steps) != seq_len:
            raise UsageError("all sequence samples must share the same length")
        for fl in s.steps:
            if fl.tensor.shape != shape:
                raise UsageError(f"fused latent shape {fl.tensor.shape} differs from "
                                 f"the batch's {shape}")
    c1 = head.conv[0]
    if shape[0] != c1.in_channels:
        raise UsageError(f"fused latents have {shape[0]} channels, but the head's "
                         f"{c1.name} takes {c1.in_channels}: is it the modality set "
                         f"the head was trained on?")
    dtype = head.store.values[f"{c1.name}.w"].dtype
    return nn.map_windows(
        lambda t: run(t, np.stack([s.steps[t].tensor for s in samples], dtype=dtype)),
        range(seq_len))


def _recur(head: ClassifierHead, feats: Sequence[np.ndarray]):
    """The cell over per-step conv features in step order, then the output
    layer: (logits, cell caches, output cache)."""
    b = feats[0].shape[0]
    h = np.zeros((b, head.cell.hidden), dtype=np.float32)
    cell_caches = []
    for f in feats:
        h, cache = nn.forward(head.cell, head.store, (f.reshape(b, -1), h))
        cell_caches.append(cache)
    logits, out_cache = nn.forward(head.out, head.store, h)
    return logits[:, 0], cell_caches, out_cache


def forward_logits(head: ClassifierHead, samples: Sequence[SequenceSample],
                   columns: Sequence[dict[str, np.ndarray]] | None = None):
    """Logits for a batch of equal-length sequences; also returns caches for
    backward.

    The conv stack does not read the recurrent state, so the L steps' convs
    run through the window map, each on the whole batch; the cell then runs
    over the steps in order. Given column stores, one per step, step t's
    convs unfold into columns[t] (nn.stack_forward), so the caches are valid
    until the next forward into those stores; else they own fresh columns.
    """
    convs = _map_steps(head, samples, lambda t, x: nn.stack_forward(
        head.conv, head.store, x, None if columns is None else columns[t]))
    logits, cell_caches, out_cache = _recur(head, [f for f, _ in convs])
    return logits, (convs, cell_caches, out_cache)


def backward_logits(head: ClassifierHead, caches, grad_logits: np.ndarray) -> None:
    """Backpropagate through time; accumulates grads into the head's store.

    BPTT through the output layer and the cell comes first, serially. Each
    step's conv-stack backward then runs through the window map on a tape
    of its own, and the tapes are added into the store from the last step
    to the first: the order of the step-by-step loop, so the sums are
    bitwise the same.
    """
    convs, cell_caches, out_cache = caches
    gh = nn.backward(head.out, head.store, out_cache,
                     grad_logits[:, None].astype(np.float32))
    steps = []
    for (feats, conv_cache), cell_cache in zip(reversed(convs), reversed(cell_caches)):
        gx, gh = nn.backward(head.cell, head.store, cell_cache, gh)
        steps.append((conv_cache, gx.reshape(feats.shape)))

    def conv_grads(step) -> list[tuple[str, np.ndarray]]:
        tape = nn.GradTape(head.store)
        nn.stack_backward(head.conv, tape, *step, need_grad_in=False)
        return tape.grads

    for grads in nn.map_windows(conv_grads, steps):
        for name, g in grads:
            head.store.accumulate(name, g)


def classify(head: ClassifierHead, sample: SequenceSample) -> float:
    """Probability of the positive (high-stress) class for one sequence."""
    return float(predict_scores(head, [sample])[0])


def predict_scores(head: ClassifierHead, dataset: Sequence[SequenceSample],
                   batch: int = 32) -> np.ndarray:
    """Positive-class probabilities, `batch` sequences at a time.

    The conv stack runs as the cache-free inference pass (nn.stack_infer),
    one step per map item on that runner's arena; its features are bitwise
    those of forward_logits.
    """
    if batch < 1:
        raise UsageError(f"batch must be >= 1, got {batch}")
    if not dataset:
        raise UsageError("cannot score an empty dataset")
    scores = []
    for lo in range(0, len(dataset), batch):
        feats = _map_steps(head, dataset[lo:lo + batch],
                           lambda t, x: nn.stack_infer(head.conv, head.store, x))
        logits, _, _ = _recur(head, feats)
        scores.append(nn.sigmoid_fn(logits.astype(np.float64)))
    return np.concatenate(scores)


@dataclass
class ClassifierConfig:
    lr: float = 1e-3
    epochs: int = 30
    batch: int = 16
    seed: int = 0


@dataclass
class EpochStats:
    loss: float
    accuracy: float


_thread = threading.local()  # .columns: this thread's head column stores


def _column_stores(seq_len: int) -> list[dict[str, np.ndarray]]:
    """The calling thread's column stores, at least one per step index.

    They outlive a train_classifier call, as nn.thread_arena() does for
    inference, so later batches and calls unfold into the same columns.
    """
    stores = getattr(_thread, "columns", None)
    if stores is None:
        stores = _thread.columns = []
    stores.extend({} for _ in range(seq_len - len(stores)))
    return stores


def train_classifier(dataset: Sequence[SequenceSample],
                     cfg: ClassifierConfig = ClassifierConfig(),
                     head: ClassifierHead | None = None
                     ) -> tuple[ClassifierHead, list[EpochStats]]:
    """Adam on binary cross-entropy with a seeded per-epoch shuffle.

    The curve holds full-dataset loss and accuracy measured after each
    epoch. Raises UsageError when the dataset contains only one class.
    Step t of every batch unfolds its convs into the calling thread's
    column store t; the stores are dropped on return if they hold more
    than nn.ARENA_LIMIT bytes.
    """
    if not dataset:
        raise UsageError("empty training set")
    if cfg.batch < 1:
        raise UsageError(f"batch must be >= 1, got {cfg.batch}")
    labels = {s.label for s in dataset}
    if labels != {0, 1}:
        raise UsageError(f"training set must contain both classes, got labels {sorted(labels)}")
    first = dataset[0].steps[0]
    if head is None:
        head = build_head(first.tensor.shape[0], first.tensor.shape[1], seed=cfg.seed)
    rng = nn.seed_rng(cfg.seed + 1)
    n = len(dataset)
    columns = _column_stores(len(dataset[0].steps))
    curve: list[EpochStats] = []
    t = 0
    try:
        for epoch in range(cfg.epochs):
            perm = rng.shuffle(n)
            for lo in range(0, n, cfg.batch):
                chunk = [dataset[i] for i in perm[lo:lo + cfg.batch]]
                y = np.array([s.label for s in chunk], dtype=np.float64)
                logits, caches = forward_logits(head, chunk, columns)
                loss, dlogits = nn.bce_with_logits(logits, y)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss in epoch {epoch}")
                backward_logits(head, caches, dlogits)
                t += 1
                nn.adam_step(head.store, cfg.lr, t=t)
            scores = predict_scores(head, dataset)
            y_all = np.array([s.label for s in dataset], dtype=np.float64)
            eps = 1e-12
            full_loss = float(-np.mean(y_all * np.log(scores + eps)
                                       + (1 - y_all) * np.log(1 - scores + eps)))
            acc = float(np.mean((scores >= 0.5) == (y_all == 1)))
            curve.append(EpochStats(full_loss, acc))
            log.debug("epoch %d: loss %.4f acc %.3f", epoch, full_loss, acc)
    finally:
        if sum(c.nbytes for store in columns for c in store.values()) > nn.ARENA_LIMIT:
            _thread.columns = None
    return head, curve


def write_training_curve(path: str, curve: list[EpochStats]) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,loss,accuracy\n")
        for i, s in enumerate(curve):
            fh.write(f"{i},{s.loss:.10g},{s.accuracy:.10g}\n")


def save_head(head: ClassifierHead, path: str) -> None:
    """Write head weights in the shared tensor file format."""
    write_tensors(path, dict(head.store.values))


def load_head(path: str) -> ClassifierHead:
    """Rebuild a head from a weight file; shapes imply the architecture."""
    tensors = read_tensors(path)
    for required, rank in (("head.c1.w", 4), ("head.cell.wxu", 2)):
        if required not in tensors:
            raise DataError(f"{path}: missing tensor {required!r}")
        if tensors[required].ndim != rank:
            raise DataError(f"{path}: tensor {required!r} has shape "
                            f"{tensors[required].shape}, expected rank {rank}")
    in_channels = tensors["head.c1.w"].shape[1]
    hidden, x_dim = tensors["head.cell.wxu"].shape
    if in_channels < 1 or hidden < 1:
        raise DataError(f"{path}: head tensors imply in_channels {in_channels} "
                        f"and hidden {hidden}; both must be at least 1")
    # two stride-2 convs map a 4s x 4s grid (and any grid they reduce to the
    # same s x s) to HEAD_CHANNELS*s*s features; the grid itself is not stored
    side = math.isqrt(x_dim // HEAD_CHANNELS)
    if side < 1 or x_dim != HEAD_CHANNELS * side * side:
        raise DataError(f"{path}: cell input dim {x_dim} is not {HEAD_CHANNELS}*s*s "
                        f"for any s >= 1")
    head = build_head(in_channels, 4 * side, hidden, seed=0)
    load_into(head.store, tensors, path)
    return head


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _mean_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Rank-based AUC; None when either class is absent."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _mean_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def metrics_from_scores(scores: np.ndarray, labels: np.ndarray,
                        threshold: float = 0.5) -> Metrics:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    pos = labels == 1
    tp = int((pred & pos).sum())
    fp = int((pred & ~pos).sum())
    tn = int((~pred & ~pos).sum())
    fn = int((~pred & pos).sum())
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(accuracy, f1, auc_score(scores, labels), tp, fp, tn, fn)


def evaluate(head: ClassifierHead, dataset: Sequence[SequenceSample],
             threshold: float = 0.5) -> Metrics:
    """Confusion counts at the threshold plus accuracy, F1, and rank AUC."""
    scores = predict_scores(head, dataset)
    labels = np.array([s.label for s in dataset])
    return metrics_from_scores(scores, labels, threshold)
