"""Clip-wise neural video codec.

Each clip of a video is fitted by its own small implicit model; models
within a group are warm-started and residual-coded against their
predecessor, producing a decodable bitstream plus rate/quality reports.
"""

__version__ = "0.1.0"  # the manifest records it as tool_version

from .backbone import (BackboneConfig, UpsampleStage, config_from_text,
                       config_to_text, forward_clip, init_random,
                       param_layout)
from .bitstream import BitstreamReader, write_bitstream
from .errors import (BitstreamError, CodecError, ConfigError, DataError,
                     LayoutError, NumericError, ShapeError, TapeError)
from .metrics import RDPoint, bd_rate, psnr
from .params import ParamVector
from .pipeline import (EncodeResult, PartitionPlan, TrainConfig, decode_gom,
                       decode_video, encode_video, partition, train_model)
from .ratequant import quantize, rate_bits_eval, residual
from .tensor import Tape, Tensor
from .video import RawVideo, load_raw, save_raw, synth_video
from .warmstart import (EpsilonSchedule, epsilon_for, fit_schedule,
                        gop_gap_mse, interpolate_init)
