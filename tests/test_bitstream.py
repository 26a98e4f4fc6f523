"""Container format: round trips, tamper detection, random access."""

import gzip
import io
import struct
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from clipcodec import bitstream
from clipcodec.bitstream import (MAX_VIDEO_PIXELS, BitstreamReader,
                                 ModelRecord, _pack_header, dump_header_text,
                                 write_bitstream)
from clipcodec.errors import BitstreamError
from clipcodec.pipeline import decode_video
from conftest import HOSTILE_HEADERS, edit_stream, repack, set_header_byte


def _config_text(width, height):
    """A coord-mlp backbone for width x height frames: 4 layers, f32."""
    return (f"kind = coord-mlp\nhidden = 8\nframe_height = {height}\n"
            f"frame_width = {width}\n")


def _record(index, role, payload, n_layers=4, epsilon=0.0):
    return ModelRecord(
        index=index, role=role, epsilon=epsilon,
        scale=np.full(n_layers, 0.5, dtype=np.float32),
        mu=np.zeros(n_layers, dtype=np.float32),
        sd=np.ones(n_layers, dtype=np.float32),
        bound=np.full(n_layers, 4, dtype=np.uint32),
        payload_len=len(payload), payload_crc=zlib.crc32(payload))


def _stream(model_count=3, gom_size=5):
    payloads = [bytes([i + 1] * (10 + i)) for i in range(model_count)]
    records = [_record(i, "I" if i == 0 else "P", payloads[i],
                       epsilon=0.0 if i == 0 else 0.25 * i)
               for i in range(model_count)]
    data = write_bitstream(16, 16, 30, 10, gom_size, seed=42,
                           config_text=_config_text(16, 16),
                           records=records, payloads=payloads)
    return data, records, payloads


def test_write_read_round_trip():
    data, records, payloads = _stream()
    reader = BitstreamReader.from_bytes(data)
    header = reader.header
    assert header.width == 16 and header.frame_count == 30
    assert header.gop_size == 10 and header.gom_size == 5
    assert header.seed == 42 and data[6] == 0  # the f32 precision code
    assert header.config_text == _config_text(16, 16)
    assert len(header.records) == len(records)
    for rec, orig in zip(header.records, records):
        assert rec.index == orig.index and rec.role == orig.role
        assert rec.epsilon == pytest.approx(orig.epsilon)
        assert np.array_equal(rec.scale, orig.scale)
        assert np.array_equal(rec.bound, orig.bound)
    assert [reader.read_payload(i) for i in range(3)] == payloads


def test_paper_scale_header_round_trips():
    # 600 frames at clip length 30 in groups of 5 -> 20 model records
    payloads = [bytes([i]) * 8 for i in range(20)]
    records = [_record(i, "I" if i % 5 == 0 else "P", payloads[i])
               for i in range(20)]
    data = write_bitstream(1920, 1080, 600, 30, 5, seed=0,
                           config_text=_config_text(1920, 1080),
                           records=records, payloads=payloads)
    reader = BitstreamReader.from_bytes(data)
    header = reader.header
    assert len(header.records) == 20
    assert [r.role for r in header.records] == \
        ["I" if i % 5 == 0 else "P" for i in range(20)]
    assert [reader.read_payload(i) for i in range(20)] == payloads


def test_bad_magic_rejected_with_offset():
    data, _, _ = _stream()
    with pytest.raises(BitstreamError, match="magic"):
        BitstreamReader.from_bytes(b"XXXX" + data[4:])


def test_unknown_version_rejected():
    data, _, _ = _stream()
    tampered = bytearray(data)
    tampered[4] = 99
    with pytest.raises(BitstreamError, match="version"):
        BitstreamReader.from_bytes(bytes(tampered))


def test_truncated_stream_rejected():
    data, _, _ = _stream()
    with pytest.raises(BitstreamError):
        BitstreamReader.from_bytes(data[:20])
    with pytest.raises(BitstreamError, match="shorter"):
        decode_video(data[:-3])


def test_header_corruption_detected():
    data, _, _ = _stream()
    tampered = bytearray(data)
    tampered[10] ^= 0xFF  # inside the fixed header fields
    with pytest.raises(BitstreamError, match="CRC"):
        BitstreamReader.from_bytes(bytes(tampered))


def test_payload_flip_detected_not_crash():
    data, records, payloads = _stream()
    reader = BitstreamReader.from_bytes(data)
    offset = reader.header.offsets[1] + 3
    tampered = bytearray(data)
    tampered[offset] ^= 0x01
    with pytest.raises(BitstreamError, match="model 1"):
        BitstreamReader.from_bytes(bytes(tampered)).read_payload(1)


def test_reader_random_access_ranges():
    data, records, payloads = _stream()
    reader = BitstreamReader.from_bytes(data)
    for i, payload in enumerate(payloads):
        off, length = reader.payload_range(i)
        assert data[off:off + length] == payload
        assert reader.read_payload(i) == payload


def test_reader_reads_only_requested_ranges():
    data, records, payloads = _stream()

    class SpyIO(io.BytesIO):
        def __init__(self, buf):
            super().__init__(buf)
            self.reads = []

        def read(self, n=-1):
            start = self.tell()
            out = super().read(n)
            self.reads.append((start, len(out)))
            return out

    spy = SpyIO(data)
    reader = BitstreamReader(spy)
    header_size = reader.header.header_size
    assert all(start + length <= header_size
               for start, length in spy.reads), "header parse strayed"
    spy.reads.clear()
    reader.read_payload(2)
    lo = header_size + sum(len(p) for p in payloads[:2])
    hi = lo + len(payloads[2])
    assert spy.reads, "no payload read recorded"
    assert all(lo <= start and start + length <= hi
               for start, length in spy.reads)


def test_streams_whose_descriptor_is_not_their_bytes(tmp_path):
    # a gzip file's descriptor holds the compressed bytes, and a writer's
    # file lacks what it has not flushed; both are read through the object
    data, _, payloads = _stream()
    with gzip.open(tmp_path / "clip.bits.gz", "wb") as fh:
        fh.write(data)
    with gzip.open(tmp_path / "clip.bits.gz", "rb") as fh:
        reader = BitstreamReader(fh)
        assert [reader.read_payload(i) for i in range(3)] == payloads
    with open(tmp_path / "clip.bits", "w+b") as fh:
        fh.write(data)
        reader = BitstreamReader(fh)
        assert [reader.read_payload(i) for i in range(3)] == payloads


def test_dump_header_text_mentions_fields():
    data, _, _ = _stream()
    text = dump_header_text(BitstreamReader.from_bytes(data).header)
    assert "gop_size=10" in text
    assert "role=P" in text
    assert "kind = coord-mlp" in text
    # 3 models of the 419 parameters of param_layout, 30 frames of 16x16
    lines = text.split("\n")
    assert "parameters per model: 419" in lines
    assert ("decode work: 1257 symbols, 30 frame renders, 23040 output bytes"
            in lines)
    # the largest one-frame activation is the encoding's 6 x 8 bands per
    # pixel, above the 8-wide hidden layer
    assert ("render peak: 12288 activation elements, 49152 bytes at float32"
            in lines)


def test_write_rejects_mismatched_payload():
    payload = b"abcdef"
    record = _record(0, "I", payload)
    with pytest.raises(BitstreamError):
        write_bitstream(8, 8, 2, 2, 2, 0, _config_text(8, 8),
                        [record], [payload + b"x"])


def _frame_stream():
    """8 frames of 16x16 in 4 clips of 2, 2 clips per group, f32 with the
    config text of a 16x16 backbone: the layout HOSTILE_HEADERS assumes."""
    payloads = [bytes([i + 1]) * 6 for i in range(4)]
    records = [_record(i, "I" if i % 2 == 0 else "P", payloads[i])
               for i in range(4)]
    args = dict(width=16, height=16, frame_count=8, gop_size=2, gom_size=2,
                seed=3, config_text=_config_text(16, 16),
                records=records, payloads=payloads)
    return write_bitstream(**args), args


@pytest.mark.parametrize("edit", [edit for _, edit in HOSTILE_HEADERS],
                         ids=[name for name, _ in HOSTILE_HEADERS])
def test_frame_fields_checked_on_read_and_write(edit):
    # every hostile header is one the writer can be asked for: it refuses
    # each, and the reader rejects each before any payload
    data, args = _frame_stream()
    assert BitstreamReader.from_bytes(data).header.frame_count == 8
    bad = repack(data, **edit)
    with pytest.raises(BitstreamError):
        BitstreamReader.from_bytes(bad)
    with pytest.raises(BitstreamError):
        write_bitstream(**edit_stream(args, **edit))


@pytest.mark.parametrize("code", [1, 255])
def test_precision_byte_other_than_f32_is_refused_at_offset_6(code):
    # 0 (f32) is the one precision code; the writer has no other
    data, _ = _frame_stream()
    assert data[6] == 0
    with pytest.raises(BitstreamError, match="precision code") as excinfo:
        BitstreamReader.from_bytes(set_header_byte(data, 6, code))
    assert excinfo.value.offset == 6


@pytest.mark.parametrize("name", ["config-precision-f64",
                                  "config-upsample-subpel",
                                  "config-activation-sin"])
def test_fixed_config_key_other_value_is_refused_at_offset_40(name):
    # upsample, activation and precision each have one legal value; a
    # config text with another is refused where the text starts
    data, _ = _frame_stream()
    with pytest.raises(BitstreamError, match="unknown") as excinfo:
        BitstreamReader.from_bytes(repack(data, **dict(HOSTILE_HEADERS)[name]))
    assert excinfo.value.offset == 40


def test_video_pixel_limit_is_inclusive():
    # 2^31 pixels in 8 clips is the largest video the format allows
    side = 1 << 13
    frames = MAX_VIDEO_PIXELS // (side * side)
    payloads = [b"\x01"] * 8
    records = [_record(i, "I", payloads[i]) for i in range(8)]
    text = _config_text(side, side)
    data = write_bitstream(side, side, frames, frames // 8, 1, 0, text,
                           records, payloads)
    assert BitstreamReader.from_bytes(data).header.frame_count == frames
    # one frame more, in 7 clips of 5
    with pytest.raises(BitstreamError, match="format limit"):
        write_bitstream(side, side, frames + 1, 5, 1, 0, text,
                        records[:7], payloads[:7])


def test_many_model_header_rejected_in_linear_time():
    # 32,000 one-pixel clips, one per group, so every model is I; the last
    # record claims P.  Checking each record against the partition must
    # not cost time per record per group.
    count = 32_000
    payloads = [bytes([i % 251]) for i in range(count)]
    records = [_record(i, "I" if i < count - 1 else "P", payloads[i])
               for i in range(count)]
    data = _pack_header(1, 1, count, 1, 1, 0, _config_text(1, 1), 4,
                        records) + b"".join(payloads)
    tic = time.perf_counter()
    with pytest.raises(BitstreamError, match="contradicts the partition"):
        decode_video(data)
    # the bound is wide for slow machines: on a 2-core x86-64 host the
    # rejection takes ~0.4 s, and a scan of every group per record took
    # 23-27 s
    assert time.perf_counter() - tic < 10.0


DOC = Path(__file__).resolve().parent.parent / "docs" / "bitstream.md"


def _doc_field_table():
    """(section, offset, field, format) rows of the document's field table."""
    rows = []
    for line in DOC.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`_"):
            rows.append((cells[0].strip("`"), int(cells[1]), cells[2],
                         cells[3].strip("`")))
    return rows


def test_documented_field_table_matches_struct_formats():
    rows = _doc_field_table()
    sections = ("_FIXED", "_LAYERS", "_REC_HEAD", "_REC_TAIL", "_CRC")
    assert {section for section, *_ in rows} == set(sections)
    for section in sections:
        fields = [row for row in rows if row[0] == section]
        layout = getattr(bitstream, section)
        assert "<" + "".join(fmt for *_, fmt in fields) == layout.format
        for k, (_, offset, name, _) in enumerate(fields):
            prefix = "<" + "".join(fmt for *_, fmt in fields[:k])
            assert offset == struct.calcsize(prefix), (section, name)
    frame_fields = {name: offset for section, offset, name, _ in rows
                    if section == "_FIXED"}
    for name, offset in bitstream._FIELD_OFFSETS.items():
        assert frame_fields[name] == offset, name
