"""latentfuse: unified latent encoding and fusion of multimodal signals.

Pipeline: windowed time-series -> spectral images -> one shared
vector-quantized encoder -> fused latent sequences -> stress classification,
with a per-modality-encoder baseline and an analytic cost model for the
scaling comparison between the two.
"""

__version__ = "0.1.0"

from .errors import (BadMagicError, DataError, NumericError,
                     TruncatedPayloadError, UsageError, VersionError)
from .ingest import (Channel, MultimodalStream, Window, forward_fill,
                     load_stream, resample_uniform, slide_windows)
from .spectral import SpectralConfig, SpectralImage, magnitude_db, render_image, stft
from .vqvae import (Codebook, LatentCode, VqVaeConfig, VqVaeModel, decode,
                    encode, encode_image, load_model, quantize, save_model,
                    train_vqvae, vq_loss)
from .fusion import (ClassifierConfig, FusedLatent, Metrics, SequenceSample,
                     classify, evaluate, fuse, train_classifier, unfuse)
from .baseline import BaselineSystem, ModalityEncoder, pretrain_encoder
from .costmodel import (CostReport, PipelineCost, layer_macs, memory_traffic,
                        pipeline_cost, scaling_table)
from .pipeline import PERMUTATIONS, PipelineConfig, UnifiedSystem
