"""Bitstream container: header plus per-model range-coded payloads.

Everything is little-endian.  The header carries exactly what a decoder
needs without the source video: dimensions, partition parameters, the
backbone config text (byte-identical to the encoder's), the global seed,
and per-model records (role, blend epsilon, per-layer quantization scale,
Gaussian statistics, alphabet bound, payload length and CRC).  A CRC32
over the header itself closes the header section.  Payloads follow in
model order; their offsets are derivable from the header alone, which is
what makes single-group decoding touch only that group's byte range.

The full byte layout is documented field-by-field in docs/bitstream.md.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .backbone import BackboneConfig, config_from_text, param_layout
from .errors import BitstreamError, ConfigError
from .ratequant import MAX_SYMBOL, SIGMA_FLOOR

MAGIC = b"CINR"
VERSION = 1
# Format limit on frame_count x height x width, the pixels of one colour
# plane of the whole video: 2^31, above the 1.24e9 of the largest setting
# the codec targets (600 frames of 1920x1080).
MAX_VIDEO_PIXELS = 1 << 31
# The precision byte: parameters are float32, the one precision, code 0.
_PRECISION_F32 = 0

_FIXED = struct.Struct("<4sHBBIIIIIQI")  # magic..seed + config_len
_LAYERS = struct.Struct("<HI")           # n_layers, model_count
_REC_HEAD = struct.Struct("<IBf")        # index, role, epsilon
_REC_TAIL = struct.Struct("<II")         # payload_len, payload_crc
_CRC = struct.Struct("<I")
# A record's per-layer arrays of 4-byte entries, in stream order: (field,
# dtype, least and greatest valid value); the least scale is above 0.
_RECORD_ARRAYS = (
    ("scale", "<f4", np.finfo(np.float32).smallest_subnormal, np.inf),
    ("mu", "<f4", -np.inf, np.inf),
    ("sd", "<f4", SIGMA_FLOOR * 0.5, np.inf),
    ("bound", "<u4", 1, MAX_SYMBOL),
)
_LAYER_BYTES = 4 * len(_RECORD_ARRAYS)   # a record's bytes per layer
# Byte offsets of the frame fields inside _FIXED.
_FIELD_OFFSETS = {"width": 8, "height": 12, "frame_count": 16,
                  "gop_size": 20, "gom_size": 24}

ROLE_I = "I"
ROLE_P = "P"
_ROLE_CODES = {ROLE_I: 0x49, ROLE_P: 0x50}
_ROLE_NAMES = {v: k for k, v in _ROLE_CODES.items()}


@dataclass(frozen=True)
class PartitionPlan:
    """GOP/GOM decomposition of a frame range."""

    frame_count: int
    gop_size: int
    gom_size: int
    gops: tuple[tuple[int, int], ...]   # frame index ranges [start, end)
    goms: tuple[tuple[int, int], ...]   # gop index ranges [start, end)

    @property
    def gop_count(self) -> int:
        return len(self.gops)

    @property
    def gom_count(self) -> int:
        return len(self.goms)

    def gom_frame_range(self, gom_index: int) -> tuple[int, int]:
        first, end = self.goms[gom_index]
        return self.gops[first][0], self.gops[end - 1][1]

    def role_of(self, gop_index: int) -> str:
        if not 0 <= gop_index < self.gop_count:
            raise ConfigError(f"gop index {gop_index} outside plan")
        return ROLE_I if gop_index % self.gom_size == 0 else ROLE_P


def partition(frame_count: int, gop_size: int, gom_size: int) -> PartitionPlan:
    """Contiguous, disjoint clips covering [0, T); short tails allowed.

    ``gop_size`` counts frames per clip (one model per clip) and
    ``gom_size`` counts clips, i.e. models, per group: 8 frames with
    ``gop_size=2, gom_size=2`` make four clips in two groups.  The first
    clip of a group is its I model and the rest are P models, so a group
    with a single clip has no P model.
    """
    if frame_count < 1 or gop_size < 1 or gom_size < 1:
        raise ConfigError(f"partition needs positive T/p/m, got "
                          f"{frame_count}/{gop_size}/{gom_size}")
    gops = tuple((start, min(start + gop_size, frame_count))
                 for start in range(0, frame_count, gop_size))
    goms = tuple((first, min(first + gom_size, len(gops)))
                 for first in range(0, len(gops), gom_size))
    return PartitionPlan(frame_count=frame_count, gop_size=gop_size,
                         gom_size=gom_size, gops=gops, goms=goms)


@dataclass(frozen=True)
class ModelRecord:
    index: int
    role: str                 # "I" or "P"
    epsilon: float            # 0.0 for I-models
    scale: np.ndarray         # (L,) float32
    mu: np.ndarray            # (L,) float32
    sd: np.ndarray            # (L,) float32
    bound: np.ndarray         # (L,) uint32
    payload_len: int
    payload_crc: int


@dataclass(frozen=True)
class BitstreamHeader:
    width: int
    height: int
    frame_count: int
    gop_size: int
    gom_size: int
    seed: int
    config_text: str
    n_layers: int
    records: tuple[ModelRecord, ...]
    header_size: int
    config: BackboneConfig               # the parsed config text
    offsets: tuple[int, ...]             # payload starts, then stream end
    plan: PartitionPlan                  # one clip per record


def _check_header(width: int, height: int, frame_count: int, gop_size: int,
                  gom_size: int, config_text: str, n_layers: int,
                  records) -> tuple[BackboneConfig, PartitionPlan]:
    """Every rule a header must meet; returns its parsed backbone config
    and its partition plan.

    The writer and the reader both run it, so the encoder never writes a
    stream its own decoder rejects, and a decoder rejects a stream before
    it plans clips, allocates frames or reads a payload.  Each rule is
    checked once per field or record, so rejection takes time linear in
    the header, and the plan is built only once the clip count matches
    the records.  Offsets are those of the bad field in the stream.
    """
    fields = {"width": width, "height": height, "frame_count": frame_count,
              "gop_size": gop_size, "gom_size": gom_size}
    for name, value in fields.items():
        if value < 1:
            raise BitstreamError(f"header {name} {value} is not positive",
                                 offset=_FIELD_OFFSETS[name])
    if frame_count * height * width > MAX_VIDEO_PIXELS:
        raise BitstreamError(f"{frame_count} frames of {width}x{height} "
                             f"exceed the format limit of "
                             f"{MAX_VIDEO_PIXELS} pixels",
                             offset=_FIELD_OFFSETS["frame_count"])
    clips = -(-frame_count // gop_size)
    if clips != len(records):
        raise BitstreamError(f"{frame_count} frames in clips of {gop_size} "
                             f"need {clips} models, header has "
                             f"{len(records)}",
                             offset=_FIELD_OFFSETS["gop_size"])
    try:
        config = config_from_text(config_text)
    except ConfigError as exc:
        raise BitstreamError(f"unusable backbone config text: {exc}",
                             offset=_FIXED.size) from None
    if (config.frame_width, config.frame_height) != (width, height):
        raise BitstreamError(f"header frame size {width}x{height} differs "
                             f"from the backbone's "
                             f"{config.frame_width}x{config.frame_height}",
                             offset=_FIELD_OFFSETS["width"])
    layers_off = _FIXED.size + len(config_text.encode("utf-8"))
    layers = len(param_layout(config))
    if n_layers != layers:
        raise BitstreamError(f"header declares {n_layers} layers, config "
                             f"yields {layers}", offset=layers_off)
    first = layers_off + _LAYERS.size
    rec_size = _REC_HEAD.size + _LAYER_BYTES * n_layers + _REC_TAIL.size
    plan = partition(frame_count, gop_size, gom_size)
    for i, rec in enumerate(records):
        role = plan.role_of(i)
        if rec.index != i:
            raise BitstreamError(f"model record {i} carries index "
                                 f"{rec.index}", offset=first + i * rec_size)
        if rec.role != role:
            raise BitstreamError(f"model {i}: role {rec.role} contradicts "
                                 f"the partition",
                                 offset=first + i * rec_size + 4)
        if not 0.0 <= rec.epsilon <= 1.0 or (role == ROLE_I
                                             and rec.epsilon != 0.0):
            raise BitstreamError(f"model {i}: epsilon {rec.epsilon} invalid "
                                 f"for a {role} model",
                                 offset=first + i * rec_size + 5)
    # Each array field as stored, one (models, layers) array at once
    for pos, (name, dtype, lo, hi) in enumerate(_RECORD_ARRAYS):
        rows = [getattr(rec, name) for rec in records]
        short = [i for i, row in enumerate(rows) if len(row) != n_layers]
        if short:
            raise BitstreamError(f"model {short[0]}: {len(rows[short[0]])} "
                                 f"{name} entries, expected {n_layers}")
        values = np.asarray(rows, dtype=dtype).reshape(-1, n_layers)
        values = values.astype(np.float64)
        wrong = np.argwhere(~(np.isfinite(values) & (values >= lo)
                              & (values <= hi)))
        if wrong.size:
            i, layer = (int(v) for v in wrong[0])
            raise BitstreamError(f"model {i}: layer {layer} {name} "
                                 f"{values[i, layer]} out of range",
                                 offset=first + i * rec_size + _REC_HEAD.size
                                 + 4 * (pos * n_layers + layer))
    return config, plan


def _pack_header(width, height, frame_count, gop_size, gom_size, seed,
                 config_text, n_layers, records: list[ModelRecord]) -> bytes:
    config_bytes = config_text.encode("utf-8")
    buf = bytearray()
    buf += _FIXED.pack(MAGIC, VERSION, _PRECISION_F32, 0,
                       width, height, frame_count, gop_size, gom_size,
                       seed, len(config_bytes))
    buf += config_bytes
    buf += _LAYERS.pack(n_layers, len(records))
    for rec in records:
        buf += _REC_HEAD.pack(rec.index, _ROLE_CODES[rec.role],
                              float(rec.epsilon))
        for name, dtype, _, _ in _RECORD_ARRAYS:
            buf += np.asarray(getattr(rec, name), dtype=dtype).tobytes()
        buf += _REC_TAIL.pack(rec.payload_len, rec.payload_crc)
    buf += _CRC.pack(zlib.crc32(bytes(buf)))
    return bytes(buf)


def write_bitstream(width: int, height: int, frame_count: int, gop_size: int,
                    gom_size: int, seed: int, config_text: str,
                    records: list[ModelRecord],
                    payloads: list[bytes]) -> bytes:
    """Serialize header and payloads; record lengths/CRCs must match."""
    if len(records) != len(payloads):
        raise BitstreamError("one payload per model record required")
    for rec, payload in zip(records, payloads):
        if rec.payload_len != len(payload):
            raise BitstreamError(f"model {rec.index}: payload length "
                                 f"{len(payload)} != record "
                                 f"{rec.payload_len}")
        if rec.payload_crc != zlib.crc32(payload):
            raise BitstreamError(f"model {rec.index}: payload CRC mismatch "
                                 f"at write time")
    n_layers = len(records[0].scale) if records else 0
    _check_header(width, height, frame_count, gop_size, gom_size,
                  config_text, n_layers, records)
    header = _pack_header(width, height, frame_count, gop_size, gom_size,
                          seed, config_text, n_layers, records)
    return header + b"".join(payloads)


def _parse_header(read_exact) -> BitstreamHeader:
    def take(pos: int, n: int) -> bytes:
        data = read_exact(pos, n)
        if len(data) != n:
            raise BitstreamError("truncated header", offset=pos)
        return data

    (magic, version, prec_code, _reserved, width, height, frame_count,
     gop_size, gom_size, seed, config_len) = _FIXED.unpack(
         take(0, _FIXED.size))
    if magic != MAGIC:
        raise BitstreamError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise BitstreamError(f"unsupported version {version}", offset=4)
    if prec_code != _PRECISION_F32:
        raise BitstreamError(f"unknown precision code {prec_code} "
                             f"(parameters are f32, code 0)", offset=6)
    config_bytes = take(_FIXED.size, config_len)
    pos = _FIXED.size + config_len
    n_layers, model_count = _LAYERS.unpack(take(pos, _LAYERS.size))
    pos += _LAYERS.size
    rec_size = _REC_HEAD.size + _LAYER_BYTES * n_layers + _REC_TAIL.size
    records = []
    for _ in range(model_count):
        blob = take(pos, rec_size)
        index, role_code, epsilon = _REC_HEAD.unpack_from(blob)
        if role_code not in _ROLE_NAMES:
            raise BitstreamError(f"unknown model role {role_code:#x}",
                                 offset=pos + 4)
        arrays = {name: np.frombuffer(blob, dtype=dtype, count=n_layers,
                                      offset=_REC_HEAD.size + 4 * n_layers * k)
                  for k, (name, dtype, _, _) in enumerate(_RECORD_ARRAYS)}
        payload_len, payload_crc = _REC_TAIL.unpack_from(
            blob, rec_size - _REC_TAIL.size)
        records.append(ModelRecord(index=index, role=_ROLE_NAMES[role_code],
                                   epsilon=float(epsilon),
                                   payload_len=payload_len,
                                   payload_crc=payload_crc, **arrays))
        pos += rec_size
    stored_crc, = _CRC.unpack(take(pos, _CRC.size))
    if stored_crc != zlib.crc32(read_exact(0, pos)):
        raise BitstreamError("header CRC mismatch", offset=pos)
    try:
        config_text = config_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BitstreamError(f"backbone config text is not UTF-8: {exc}",
                             offset=_FIXED.size + exc.start) from None
    config, plan = _check_header(width, height, frame_count, gop_size,
                                 gom_size, config_text, n_layers, records)
    header_size = pos + _CRC.size
    return BitstreamHeader(
        width=width, height=height, frame_count=frame_count,
        gop_size=gop_size, gom_size=gom_size, seed=seed,
        config_text=config_text, n_layers=n_layers, records=tuple(records),
        header_size=header_size, config=config, plan=plan,
        offsets=tuple(accumulate((rec.payload_len for rec in records),
                                 initial=header_size)))


class BitstreamReader:
    """Random-access view over a seekable stream.

    Parsing the header touches only the header bytes; each
    :meth:`read_payload` call reads exactly that model's byte range, so a
    single-group decode never touches other groups' payloads.  A file
    opened for reading, buffered or not, is read with ``os.pread``, which
    leaves the file position alone: a forked worker shares it with its
    parent.  Any other stream is read with seek and read, since its
    descriptor, if it has one, need not hold the bytes it reads (a
    ``gzip`` file's holds the compressed ones, a writer's lacks what it
    has not flushed).
    """

    def __init__(self, fileobj):
        self._file = fileobj
        self._fd = None
        if isinstance(fileobj, (io.FileIO, io.BufferedReader)):
            with suppress(OSError):  # a reader over a BytesIO has none
                self._fd = fileobj.fileno()
        self.header = _parse_header(self._read_exact)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitstreamReader":
        return cls(io.BytesIO(data))

    def _read_exact(self, offset: int, n: int) -> bytes:
        if self._fd is not None:
            return os.pread(self._fd, n, offset)
        self._file.seek(offset)
        return self._file.read(n)

    def payload_range(self, index: int) -> tuple[int, int]:
        return (self.header.offsets[index],
                self.header.records[index].payload_len)

    def read_payload(self, index: int) -> bytes:
        offset, length = self.payload_range(index)
        payload = self._read_exact(offset, length)
        if len(payload) != length:
            raise BitstreamError(f"model {index}: truncated payload",
                                 offset=offset + len(payload))
        rec = self.header.records[index]
        if zlib.crc32(payload) != rec.payload_crc:
            raise BitstreamError(f"model {rec.index}: payload CRC mismatch",
                                 offset=offset)
        return payload

    def check_complete(self) -> None:
        """Refuse a stream shorter than its header declares; a whole-stream
        decode runs this before it decodes anything."""
        size, end = self._file.seek(0, io.SEEK_END), self.header.offsets[-1]
        if size < end:
            raise BitstreamError(f"stream shorter than declared: {size} "
                                 f"< {end}", offset=size)


def dump_header_text(header: BitstreamHeader) -> str:
    """Human-readable header rendering for the --dump-header mode."""
    params = sum(spec.count for spec in param_layout(header.config))
    n = header.frame_count  # decode work as docs/bitstream.md counts it
    lines = [
        f"magic/version: {MAGIC.decode()} v{VERSION}",
        f"video: {header.width}x{header.height}, {header.frame_count} frames",
        f"partition: gop_size={header.gop_size} gom_size={header.gom_size}",
        f"seed: {header.seed}",
        f"layers per model: {header.n_layers}",
        f"models: {len(header.records)}",
        f"parameters per model: {params}",
        f"decode work: {len(header.records) * params} symbols, {n} frame "
        f"renders, {3 * n * header.height * header.width} output bytes",
        "backbone config:",
    ]
    lines += ["  | " + line for line in header.config_text.rstrip().split("\n")]
    for rec, off in zip(header.records, header.offsets):
        lines.append(
            f"model {rec.index}: role={rec.role} epsilon={rec.epsilon:.6g} "
            f"payload={rec.payload_len}B @ {off} "
            f"bounds=[{int(rec.bound.min())}..{int(rec.bound.max())}]")
    return "\n".join(lines)
