"""The benchmark's four workloads, driven through the library's public functions.

Each workload has a set-up (build the seeded systems and data, write the
weights and read them back as the CLI does), an input generator, one timed
call, and an output check that runs outside the timed region. All inputs
come from the workload seed. See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import os

import numpy as np

from latentfuse import (baseline, costmodel, fusion, ingest, pipeline, spectral,
                        synthetic, vqvae)

MODALITIES = pipeline.PERMUTATIONS[6]
EMBED_DIM = 16
CODEBOOK = 128
PCFG = pipeline.PipelineConfig()
# one request is exactly one classified sequence: 800 samples -> 8 windows
SEGMENT_LEN = PCFG.window_len + (PCFG.seq_len - 1) * PCFG.stride
ORACLE_WINDOWS = 2  # windows per request re-quantized by the float64 oracle

TRAIN_IMAGES = 64
TRAIN_STEPS = 4  # per timed call; the recon term falls below curve[0] by step 4
TRAIN_BATCH = 8

HEAD_SEQUENCES = 48
HEAD_EVAL_SEQUENCES = 32
HEAD_DISTANCE = 32.0  # class separation at which one epoch beats chance clearly
HEAD_CFG = fusion.ClassifierConfig(lr=5e-3, epochs=1, batch=16, seed=0)


def derived_seed(seed: int, index: int) -> int:
    """Independent 32-bit seed for input `index` of the run seeded by `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def nearest_code(z_e: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Exhaustive float64 nearest-code search per cell; ties go to the lowest index."""
    vecs = z_e.reshape(z_e.shape[0], -1).T.astype(np.float64)
    dist = ((vecs[:, None, :] - entries.astype(np.float64)[None, :, :]) ** 2).sum(axis=2)
    return np.argmax(dist == dist.min(axis=1, keepdims=True), axis=1)


class Workload:
    """One workload. A timed call performs `per_call` operations."""

    name = ""
    op_name = ""         # what one operation is: request, step or epoch
    per_call = 1
    items_per_op = 1     # items counted by items_per_s in one operation
    batch = 1            # batch of each layer call, for the cost-model join
    pipeline_kind: str | None = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.extra: dict[str, float] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Failure messages for one call's output; empty when it is correct."""
        raise NotImplementedError

    def cost_rows(self, batch: int) -> dict[str, costmodel.CostRow]:
        """Cost-model rows of the neural layers this workload runs, by row name."""
        raise NotImplementedError

    def _head_rows(self, batch: int) -> dict[str, costmodel.CostRow]:
        return {r.name: r for r in costmodel.head_cost(len(MODALITIES) * EMBED_DIM,
                                                       seq_len=batch).rows}

    def _head_setup(self) -> fusion.ClassifierHead:
        fusion.save_head(fusion.build_head(len(MODALITIES) * EMBED_DIM, seed=0),
                         self.path("head.lsfw"))
        return fusion.load_head(self.path("head.lsfw"))


class Infer(Workload):
    """One client sending raw 800-sample segments; each returns one probability."""

    op_name = "request"
    items_per_op = len(MODALITIES) * PCFG.seq_len  # windows

    def __init__(self, kind: str, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.name = f"infer_{kind}"
        self.pipeline_kind = kind
        self.expected_loads = costmodel.pipeline_cost(
            kind, len(MODALITIES), EMBED_DIM, CODEBOOK, PCFG.seq_len,
            PCFG.window_len, PCFG.spectral, modalities=MODALITIES).encoder_loads

    def setup(self) -> None:
        head = self._head_setup()
        if self.pipeline_kind == "unified":
            vqvae.save_model(vqvae.build_model(CODEBOOK, EMBED_DIM, seed=0),
                             self.path("unified.lsfw"))
            self.system = pipeline.UnifiedSystem(vqvae.load_model(self.path("unified.lsfw")),
                                                 head)
            return
        encoders = {}
        for i, m in enumerate(MODALITIES):
            baseline.save_encoder(baseline.build_encoder(m, EMBED_DIM, seed=i),
                                  self.path(f"{m}.lsfw"))
            encoders[m] = baseline.load_extractor(self.path(f"{m}.lsfw"), m, EMBED_DIM)
        self.system = baseline.BaselineSystem(encoders, head)

    def make_input(self, i: int):
        return i, synthetic.make_stream(n_samples=SEGMENT_LEN, seed=derived_seed(self.seed, i))

    def run(self, inp):
        samples = pipeline.stream_to_sequences(self.system, inp[1], len(MODALITIES), PCFG)
        return samples, fusion.classify(self.system.head, samples[0])

    def check(self, inp, out) -> list[str]:
        samples, prob = out
        bad = []
        if len(samples) != 1 or len(samples[0].steps) != PCFG.seq_len:
            return [f"expected 1 sequence of {PCFG.seq_len} steps, got "
                    f"{[len(s.steps) for s in samples]}"]
        if not (math.isfinite(prob) and 0.0 <= prob <= 1.0):
            bad.append(f"probability {prob} is not in [0, 1]")
        loads = pipeline.encoder_loads(self.system, MODALITIES)
        if loads != self.expected_loads:
            bad.append(f"encoder_loads {loads} != cost model {self.expected_loads}")
        blocks = [fusion.unfuse(step) for step in samples[0].steps]
        for t, block in enumerate(blocks):
            for m, latent in block.items():
                if latent.shape != (EMBED_DIM, vqvae.GRID, vqvae.GRID):
                    bad.append(f"step {t} {m}: latent shape {latent.shape}")
                elif not np.isfinite(latent).all():
                    bad.append(f"step {t} {m}: non-finite latent")
        if self.pipeline_kind == "unified" and not bad:
            bad += self._check_codes(inp, blocks)
        return bad

    def _check_codes(self, inp, blocks) -> list[str]:
        """Every latent cell is a codebook row bitwise, and sampled windows
        pick the code the float64 oracle picks."""
        entries = self.system.model.codebook.entries
        index_of: dict[bytes, int] = {}
        for k, row in enumerate(entries):
            index_of.setdefault(row.tobytes(), k)
        bad = []
        codes = {}
        for t, block in enumerate(blocks):
            for m, latent in block.items():
                cells = np.ascontiguousarray(latent.reshape(EMBED_DIM, -1).T)
                codes[t, m] = np.array([index_of.get(c.tobytes(), -1) for c in cells])
                misses = int((codes[t, m] < 0).sum())
                if misses:
                    bad.append(f"step {t} {m}: {misses} cells are not codebook rows")
        i, segment = inp
        stream = pipeline.derive_acc_magnitude(segment)
        rng = np.random.default_rng(derived_seed(self.seed, i))
        for _ in range(ORACLE_WINDOWS):
            t = int(rng.integers(PCFG.seq_len))
            m = MODALITIES[int(rng.integers(len(MODALITIES)))]
            window = ingest.slide_windows(stream.channels[m], stream.labels,
                                          PCFG.window_len, PCFG.stride)[t]
            z_e = vqvae.encode(self.system.model, spectral.spectral_image(window, PCFG.spectral))
            want = nearest_code(z_e, entries)
            if not np.array_equal(want, codes[t, m]):
                diff = int((want != codes[t, m]).sum())
                bad.append(f"step {t} {m}: {diff} cells differ from the float64 oracle")
        return bad

    def cost_rows(self, batch: int) -> dict[str, costmodel.CostRow]:
        image = (3, spectral.IMAGE_SIZE, spectral.IMAGE_SIZE)
        if self.pipeline_kind == "unified":
            rows = costmodel.stack_cost(vqvae.build_encoder(EMBED_DIM), image, batch).rows
        else:
            rows = [r for m in MODALITIES for r in costmodel.stack_cost(
                baseline.build_feature_stack(m, EMBED_DIM), image, batch).rows]
        return {**{r.name: r for r in rows}, **self._head_rows(batch)}


class TrainEncoder(Workload):
    """train_vqvae on seeded generic images; one operation is one optimiser step."""

    name = "train_encoder"
    op_name = "step"
    per_call = TRAIN_STEPS
    batch = TRAIN_BATCH
    cfg = vqvae.VqVaeConfig(codebook_size=CODEBOOK, embed_dim=EMBED_DIM,
                            steps=TRAIN_STEPS, batch=TRAIN_BATCH, seed=0)

    def setup(self) -> None:
        self.images = synthetic.make_images(TRAIN_IMAGES, derived_seed(self.seed, 0))
        vqvae.save_model(vqvae.build_model(CODEBOOK, EMBED_DIM, seed=self.cfg.seed),
                         self.path("init.lsfw"))
        self.initial = vqvae.load_model(self.path("init.lsfw"))

    def make_input(self, i: int):
        return self.images

    def run(self, images):
        return vqvae.train_vqvae(images, self.cfg)

    def check(self, inp, out) -> list[str]:
        model, curve = out
        bad = []
        if len(curve) != TRAIN_STEPS:
            return [f"curve has {len(curve)} steps, expected {TRAIN_STEPS}"]
        terms = [(r.reconstruction, r.codebook_term, r.commitment_term) for r in curve]
        if not np.isfinite(terms).all():
            bad.append("training curve is not finite")
        first, last = curve[0].reconstruction, curve[-1].reconstruction
        if not last < first:
            bad.append(f"vq_recon_mse {last} is not below the first step's {first}")
        if not all(np.isfinite(v).all() for v in model.store.values.values()):
            bad.append("trained weights are not finite")
        if all(np.array_equal(v, self.initial.store.values[k])
               for k, v in model.store.values.items()):
            bad.append("training left every weight at its seeded value")
        self.extra["vq_recon_mse"] = last
        return bad

    def cost_rows(self, batch: int) -> dict[str, costmodel.CostRow]:
        enc = costmodel.stack_cost(vqvae.build_encoder(EMBED_DIM),
                                   (3, spectral.IMAGE_SIZE, spectral.IMAGE_SIZE), batch)
        dec = costmodel.stack_cost(vqvae.build_decoder(EMBED_DIM),
                                   (EMBED_DIM, vqvae.GRID, vqvae.GRID), batch)
        return {r.name: r for r in enc.rows + dec.rows}


class TrainHead(Workload):
    """train_classifier on seeded separable latent sequences; one operation is one epoch."""

    name = "train_head"
    op_name = "epoch"
    per_call = HEAD_CFG.epochs
    items_per_op = HEAD_SEQUENCES
    batch = HEAD_CFG.batch

    def _sequences(self, n: int, index: int) -> list[fusion.SequenceSample]:
        return synthetic.make_separable_sequences(
            n, m=len(MODALITIES), d=EMBED_DIM, grid=vqvae.GRID, seq_len=PCFG.seq_len,
            distance=HEAD_DISTANCE, seed=derived_seed(self.seed, index))

    def setup(self) -> None:
        self.train_set = self._sequences(HEAD_SEQUENCES, 0)
        self.eval_set = self._sequences(HEAD_EVAL_SEQUENCES, 1)
        self._head_setup()

    def make_input(self, i: int):
        return fusion.load_head(self.path("head.lsfw"))  # a fresh seeded head per call

    def run(self, head):
        return fusion.train_classifier(self.train_set, HEAD_CFG, head=head)

    def check(self, inp, out) -> list[str]:
        head, curve = out
        bad = []
        if not np.isfinite([(s.loss, s.accuracy) for s in curve]).all():
            bad.append("training curve is not finite")
        scores = fusion.predict_scores(head, self.eval_set)
        labels = np.array([s.label for s in self.eval_set], dtype=np.float64)
        if not (np.isfinite(scores).all() and (scores >= 0).all() and (scores <= 1).all()):
            return bad + ["held-out probabilities are not in [0, 1]"]
        eps = 1e-12
        bce = float(-np.mean(labels * np.log(scores + eps)
                             + (1 - labels) * np.log(1 - scores + eps)))
        if not bce < math.log(2):
            bad.append(f"head_eval_bce {bce} is no better than chance")
        self.extra["head_eval_bce"] = bce
        return bad

    def cost_rows(self, batch: int) -> dict[str, costmodel.CostRow]:
        return self._head_rows(batch)


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "infer_unified":
        return Infer("unified", seed, workdir)
    if name == "infer_baseline":
        return Infer("baseline", seed, workdir)
    if name == "train_encoder":
        return TrainEncoder(seed, workdir)
    if name == "train_head":
        return TrainHead(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
