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
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import BitstreamError
from .ratequant import MAX_SYMBOL, SIGMA_FLOOR

MAGIC = b"CINR"
VERSION = 1
_PRECISION_CODES = {"f32": 0, "f64": 1}
_PRECISION_NAMES = {v: k for k, v in _PRECISION_CODES.items()}

_FIXED = struct.Struct("<4sHBBIIIIIQI")  # magic..seed + config_len
_LAYERS = struct.Struct("<HI")           # n_layers, model_count
_REC_HEAD = struct.Struct("<IBf")        # index, role, epsilon
_REC_TAIL = struct.Struct("<II")         # payload_len, payload_crc
_CRC = struct.Struct("<I")

ROLE_I = "I"
ROLE_P = "P"
_ROLE_CODES = {ROLE_I: 0x49, ROLE_P: 0x50}
_ROLE_NAMES = {v: k for k, v in _ROLE_CODES.items()}


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
    precision: str
    config_text: str
    n_layers: int
    records: tuple[ModelRecord, ...]
    header_size: int

    def payload_offset(self, index: int) -> int:
        off = self.header_size
        for rec in self.records[:index]:
            off += rec.payload_len
        return off

    def total_size(self) -> int:
        return self.header_size + sum(r.payload_len for r in self.records)


def _check_record(rec: ModelRecord, offset=None) -> None:
    """Reject a record the decoder could not use before any payload is read.

    Bounds must lie in [1, MAX_SYMBOL] and sd be finite and at least the
    floor the coder's tables accept; scales must be finite and positive;
    epsilon must lie in [0, 1] and be 0 for an I model.
    """
    bound = np.asarray(rec.bound, dtype=np.int64)
    sd = np.asarray(rec.sd, dtype=np.float64)
    scale = np.asarray(rec.scale, dtype=np.float64)
    for field_name, values, ok in (
            ("alphabet bound", bound, (bound >= 1) & (bound <= MAX_SYMBOL)),
            ("sd", sd, np.isfinite(sd) & (sd >= SIGMA_FLOOR * 0.5)),
            ("scale", scale, np.isfinite(scale) & (scale > 0.0))):
        wrong = np.flatnonzero(~ok)
        if wrong.size:
            layer = int(wrong[0])
            raise BitstreamError(f"model {rec.index}: layer {layer} "
                                 f"{field_name} {values[layer]} out of range",
                                 offset=offset)
    if not 0.0 <= rec.epsilon <= 1.0 or (rec.role == ROLE_I
                                         and rec.epsilon != 0.0):
        raise BitstreamError(f"model {rec.index}: epsilon {rec.epsilon} "
                             f"invalid for a {rec.role} model",
                             offset=offset)


def _pack_header(width, height, frame_count, gop_size, gom_size, seed,
                 precision, config_text, n_layers,
                 records: list[ModelRecord]) -> bytes:
    config_bytes = config_text.encode("utf-8")
    buf = bytearray()
    buf += _FIXED.pack(MAGIC, VERSION, _PRECISION_CODES[precision], 0,
                       width, height, frame_count, gop_size, gom_size,
                       seed, len(config_bytes))
    buf += config_bytes
    buf += _LAYERS.pack(n_layers, len(records))
    for rec in records:
        if len(rec.scale) != n_layers:
            raise BitstreamError(f"model {rec.index}: {len(rec.scale)} "
                                 f"layer entries, expected {n_layers}")
        buf += _REC_HEAD.pack(rec.index, _ROLE_CODES[rec.role],
                              float(rec.epsilon))
        buf += np.asarray(rec.scale, dtype="<f4").tobytes()
        buf += np.asarray(rec.mu, dtype="<f4").tobytes()
        buf += np.asarray(rec.sd, dtype="<f4").tobytes()
        buf += np.asarray(rec.bound, dtype="<u4").tobytes()
        buf += _REC_TAIL.pack(rec.payload_len, rec.payload_crc)
    buf += _CRC.pack(zlib.crc32(bytes(buf)))
    return bytes(buf)


def write_bitstream(width: int, height: int, frame_count: int, gop_size: int,
                    gom_size: int, seed: int, precision: str,
                    config_text: str, records: list[ModelRecord],
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
        _check_record(rec)
    n_layers = len(records[0].scale) if records else 0
    header = _pack_header(width, height, frame_count, gop_size, gom_size,
                          seed, precision, config_text, n_layers, records)
    return header + b"".join(payloads)


class _Cursor:
    def __init__(self, read_exact, base: int = 0):
        self._read = read_exact
        self.pos = base

    def take(self, n: int) -> bytes:
        data = self._read(self.pos, n)
        if len(data) != n:
            raise BitstreamError("truncated header", offset=self.pos)
        self.pos += n
        return data


def _parse_header(read_exact) -> BitstreamHeader:
    cur = _Cursor(read_exact)
    fixed = cur.take(_FIXED.size)
    (magic, version, prec_code, _reserved, width, height, frame_count,
     gop_size, gom_size, seed, config_len) = _FIXED.unpack(fixed)
    if magic != MAGIC:
        raise BitstreamError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise BitstreamError(f"unsupported version {version}", offset=4)
    if prec_code not in _PRECISION_NAMES:
        raise BitstreamError(f"unknown precision code {prec_code}", offset=6)
    config_off = cur.pos
    config_bytes = cur.take(config_len)
    n_layers, model_count = _LAYERS.unpack(cur.take(_LAYERS.size))
    records = []
    offsets = []
    for _ in range(model_count):
        rec_off = cur.pos
        offsets.append(rec_off)
        index, role_code, epsilon = _REC_HEAD.unpack(cur.take(_REC_HEAD.size))
        if role_code not in _ROLE_NAMES:
            raise BitstreamError(f"unknown model role {role_code:#x}",
                                 offset=rec_off + 4)
        scale = np.frombuffer(cur.take(4 * n_layers), dtype="<f4")
        mu = np.frombuffer(cur.take(4 * n_layers), dtype="<f4")
        sd = np.frombuffer(cur.take(4 * n_layers), dtype="<f4")
        bound = np.frombuffer(cur.take(4 * n_layers), dtype="<u4")
        payload_len, payload_crc = _REC_TAIL.unpack(cur.take(_REC_TAIL.size))
        records.append(ModelRecord(index=index, role=_ROLE_NAMES[role_code],
                                   epsilon=float(epsilon), scale=scale,
                                   mu=mu, sd=sd, bound=bound,
                                   payload_len=payload_len,
                                   payload_crc=payload_crc))
    crc_off = cur.pos
    stored_crc, = _CRC.unpack(cur.take(_CRC.size))
    actual_crc = zlib.crc32(read_exact(0, crc_off))
    if stored_crc != actual_crc:
        raise BitstreamError("header CRC mismatch", offset=crc_off)
    try:
        config_text = config_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BitstreamError(f"backbone config text is not UTF-8: {exc}",
                             offset=config_off + exc.start) from None
    for rec, rec_off in zip(records, offsets):
        _check_record(rec, offset=rec_off)
    return BitstreamHeader(width=width, height=height,
                           frame_count=frame_count, gop_size=gop_size,
                           gom_size=gom_size, seed=seed,
                           precision=_PRECISION_NAMES[prec_code],
                           config_text=config_text, n_layers=n_layers,
                           records=tuple(records), header_size=cur.pos)


def read_bitstream(data: bytes) -> tuple[BitstreamHeader, list[bytes]]:
    """Parse bytes into a header and verified payloads."""
    def read_exact(offset, n):
        return data[offset:offset + n]

    header = _parse_header(read_exact)
    if header.total_size() > len(data):
        raise BitstreamError(f"stream shorter than declared: {len(data)} "
                             f"< {header.total_size()}",
                             offset=len(data))
    payloads = []
    off = header.header_size
    for rec in header.records:
        payload = data[off:off + rec.payload_len]
        if zlib.crc32(payload) != rec.payload_crc:
            raise BitstreamError(f"model {rec.index}: payload CRC mismatch",
                                 offset=off)
        payloads.append(payload)
        off += rec.payload_len
    return header, payloads


class BitstreamReader:
    """Random-access view over a seekable stream.

    Parsing the header touches only the header bytes; each
    :meth:`read_payload` call reads exactly that model's byte range, so a
    single-group decode never touches other groups' payloads.
    """

    def __init__(self, fileobj):
        self._file = fileobj
        self.header = _parse_header(self._read_exact)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitstreamReader":
        return cls(io.BytesIO(data))

    def _read_exact(self, offset: int, n: int) -> bytes:
        self._file.seek(offset)
        return self._file.read(n)

    def payload_range(self, index: int) -> tuple[int, int]:
        rec = self.header.records[index]
        return self.header.payload_offset(index), rec.payload_len

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


def dump_header_text(header: BitstreamHeader) -> str:
    """Human-readable header rendering for the --dump-header mode."""
    lines = [
        f"magic/version: {MAGIC.decode()} v{VERSION}",
        f"video: {header.width}x{header.height}, {header.frame_count} frames",
        f"partition: gop_size={header.gop_size} gom_size={header.gom_size}",
        f"seed: {header.seed}",
        f"precision: {header.precision}",
        f"layers per model: {header.n_layers}",
        f"models: {len(header.records)}",
        "backbone config:",
    ]
    lines += ["  | " + line for line in header.config_text.rstrip().split("\n")]
    off = header.header_size
    for rec in header.records:
        lines.append(
            f"model {rec.index}: role={rec.role} epsilon={rec.epsilon:.6g} "
            f"payload={rec.payload_len}B @ {off} "
            f"bounds=[{int(rec.bound.min())}..{int(rec.bound.max())}]")
        off += rec.payload_len
    return "\n".join(lines)
