"""Command-line surface.

Exit codes: 0 success, 2 usage/configuration error, 3 data error
(unreadable files, malformed streams), 4 numeric failure (divergence,
non-finite values).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing
from pathlib import Path

from . import metrics, presets, video as videomod
from .backbone import config_from_text
from .bitstream import BitstreamReader, dump_header_text
from .errors import (BitstreamError, CodecError, ConfigError, DataError,
                     NumericError, unreadable)
from .manifest import RunManifest, build_manifest
from .pipeline import (TrainConfig, _decode_windows, decode_gom,
                       encode_video, partition)
from .warmstart import fit_schedule

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _write_atomic(path: Path, chunks) -> None:
    """Write an iterable of byte chunks via a temp file + rename: a
    failure, also one raised while the chunks are produced, leaves no
    partial output.  Each chunk is let go before the next is produced.
    The file gets the mode a plain ``open`` gives, 0o666 less the umask."""
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _same_file(a: Path, b: Path) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return a.resolve() == b.resolve()


def _check_outputs(*paths, inputs=()) -> None:
    """Refuse, before any work, an output that is a directory, lies in a
    missing one, names the same file as another output or names one of
    the command's ``inputs``; ``None`` stands for a file not asked for."""
    paths = [path for path in paths if path is not None]
    for index, path in enumerate(paths):
        if path.is_dir() or not path.parent.is_dir():
            raise DataError(f"cannot write {path}: not a file in an "
                            f"existing directory")
        for other in paths[:index]:
            if _same_file(path, other):
                raise DataError(f"cannot write {path}: it is also the "
                                f"output {other}")
        for source in inputs:
            if source is not None and _same_file(path, source):
                raise DataError(f"cannot write {path}: it is the input "
                                f"{source}")


def _add_synth(sub):
    p = sub.add_parser("synth", help="generate a synthetic raw RGB video")
    p.add_argument("out", type=Path)
    p.add_argument("--kind", choices=videomod.SYNTH_KINDS, default="static")
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--velocity", type=float, default=0.0,
                   help="pan/translation speed in pixels per frame")
    p.add_argument("--seed", type=int, default=0)


def _cmd_synth(args) -> int:
    _check_outputs(args.out)
    vid = videomod.synth_video(args.kind, args.width, args.height,
                               args.frames, velocity=args.velocity,
                               seed=args.seed)
    _write_atomic(args.out, [vid.to_bytes()])
    print(f"wrote {args.out} ({vid.frame_count} frames, "
          f"{vid.frames.nbytes} bytes)")
    return EXIT_OK


class _Setting(argparse.Action):
    """An encode setting: stored, and its flag noted in ``args.settings``,
    as ``--from-manifest`` takes every setting from the manifest."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if self.option_strings[0] not in namespace.settings:
            namespace.settings += (self.option_strings[0],)


def _add_encode(sub):
    train = TrainConfig()
    p = sub.add_parser("encode", help="fit and compress a raw RGB video")
    p.set_defaults(settings=())
    p.add_argument("input", type=Path, nargs="?",
                   help="raw planar RGB8 file (omit with --from-manifest)")
    p.add_argument("--out", type=Path, required=True,
                   help="output bitstream path")
    p.add_argument("--from-manifest", type=Path,
                   help="re-run a previous encode exactly")

    def setting(*flags, **kwargs):
        p.add_argument(*flags, action=_Setting, **kwargs)

    setting("--width", type=int, default=32)
    setting("--height", type=int, default=32)
    setting("--gop", "-p", type=int, default=10, help="frames per clip")
    setting("--gom", "-m", type=int, default=3, help="clips per model group")
    setting("--tier", choices=tuple(presets.TIERS),
            default=presets.DEFAULT_TIER, help="desk-scale backbone size")
    setting("--backbone-config", type=Path,
            help="explicit backbone config file (overrides --tier)")
    setting("--lambda", dest="lam", type=float, default=train.lam,
            help="distortion weight in the training loss")
    setting("--epochs-i", type=int, default=train.epochs_i)
    setting("--epochs-p", type=int, default=train.epochs_p)
    setting("--lr", type=float, default=train.lr_i,
            help="learning rate of both I and P models")
    setting("--seed", type=int, default=train.seed)
    p.add_argument("--csv", type=Path, help="append the summary row here")
    p.add_argument("--log", type=Path, help="write per-epoch JSONL records")
    p.add_argument("--emit-manifest", type=Path,
                   help="manifest path (default: <out>.manifest.json)")
    p.add_argument("--sequence", default=None,
                   help="label for the CSV row (default: input stem)")


def _cmd_encode(args) -> int:
    manifest_path = args.emit_manifest or args.out.with_suffix(
        args.out.suffix + ".manifest.json")
    outputs = args.out, args.csv, args.log, manifest_path
    _check_outputs(*outputs, inputs=(args.input, args.from_manifest,
                                     args.backbone_config))
    if args.from_manifest:
        if args.input is not None:
            raise ConfigError("encode takes an input file or "
                              "--from-manifest, not both")
        if args.settings:
            raise ConfigError(f"encode --from-manifest takes its settings "
                              f"from the manifest, not "
                              f"{', '.join(args.settings)}")
        source = RunManifest.load(args.from_manifest)
        input_path = Path(source.input_path)
        _check_outputs(*outputs, inputs=(input_path,))
        config = source.backbone()
        cfg = source.train_config()
        width, height = source.width, source.height
        gop_size, gom_size = source.gop_size, source.gom_size
    else:
        if args.input is None:
            raise ConfigError("encode needs an input file or --from-manifest")
        input_path = args.input
        width, height = args.width, args.height
        gop_size, gom_size = args.gop, args.gom
        if args.backbone_config:
            try:
                text = args.backbone_config.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise unreadable(args.backbone_config, exc) from None
            config = config_from_text(text)
        else:
            config = presets.nerv_lite_preset(width, height, args.tier)
        cfg = TrainConfig(epochs_i=args.epochs_i, epochs_p=args.epochs_p,
                          lr_i=args.lr, lr_p=args.lr, lam=args.lam,
                          seed=args.seed)

    vid = videomod.load_raw(input_path, width, height)
    manifest = build_manifest(input_path, vid, gop_size, gom_size, config,
                              cfg)
    if args.from_manifest and manifest.input_sha256 != source.input_sha256:
        raise DataError(f"{input_path}: sha256 {manifest.input_sha256} is "
                        f"not the {source.input_sha256} that "
                        f"{args.from_manifest} recorded")
    plan = partition(vid.frame_count, gop_size, gom_size)
    result = encode_video(vid, plan, config, cfg)
    _write_atomic(args.out, [result.data])
    if args.log:
        _write_atomic(args.log, [
            (json.dumps({"model": log.index, "role": log.role, **entry})
             + "\n").encode()
            for log in result.per_model for entry in log.epoch_logs])
    _write_atomic(manifest_path, [manifest.to_json().encode()])

    sequence = args.sequence or input_path.stem
    if args.csv:
        metrics.append_rd_row(args.csv, sequence, gop_size, gom_size,
                              cfg.lam, result.bpp, result.psnr_mean,
                              result.wall_seconds)
    print(f"encoded {sequence}: {len(result.data)} bytes, "
          f"bpp={result.bpp:.6f}, psnr={result.psnr_mean:.3f} dB "
          f"(RGB, 8-bit), {result.wall_seconds:.1f}s")
    for log in result.per_model:
        print(f"  model {log.index} [{log.role}] eps={log.epsilon:.4f} "
              f"payload={log.payload_bits} bits "
              f"est={log.estimate_bits:.0f} bits")
    return EXIT_OK


def _add_decode(sub):
    p = sub.add_parser("decode", help="reconstruct raw video from a "
                                      "bitstream")
    p.add_argument("bitstream", type=Path)
    p.add_argument("out", type=Path, nargs="?")
    p.add_argument("--gom", type=int, default=None,
                   help="decode only this model group's frame range")
    p.add_argument("--dump-header", action="store_true",
                   help="print the parsed header and exit")


def _cmd_decode(args) -> int:
    if args.out is None and not args.dump_header:
        raise ConfigError("decode needs an output path (or --dump-header)")
    _check_outputs(args.out, inputs=(args.bitstream,))
    try:
        fh = args.bitstream.open("rb")
    except OSError as exc:
        raise unreadable(args.bitstream, exc) from None
    with fh:
        reader = BitstreamReader(fh)
        if args.dump_header:
            print(dump_header_text(reader.header))
            return EXIT_OK
        if args.gom is not None:
            _write_atomic(args.out, [decode_gom(reader, args.gom)[0].frames])
        else:
            with closing(_decode_windows(reader)) as windows:
                _write_atomic(args.out, windows)
    frames = args.out.stat().st_size // (3 * reader.header.width
                                         * reader.header.height)
    print(f"decoded {frames} frames -> {args.out}")
    return EXIT_OK


def _add_eval(sub):
    p = sub.add_parser("eval", help="PSNR between two raw videos")
    p.add_argument("reference", type=Path)
    p.add_argument("test", type=Path)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--per-frame", action="store_true")


def _cmd_eval(args) -> int:
    ref = videomod.load_raw(args.reference, args.width, args.height)
    test = videomod.load_raw(args.test, args.width, args.height)
    result = metrics.psnr(ref, test)
    if args.per_frame:
        for i, value in enumerate(result.capped()):
            print(f"frame {i}: {value:.6f} dB")
    print(f"mean psnr: {result.mean:.6f} dB (RGB, 8-bit)")
    return EXIT_OK


def _add_bdrate(sub):
    p = sub.add_parser("bdrate", help="average rate difference between two "
                                      "rate-quality curves")
    p.add_argument("anchor", type=Path, help="CSV with bpp and psnr columns")
    p.add_argument("test", type=Path)


def _cmd_bdrate(args) -> int:
    anchor = metrics.read_rd_curve(args.anchor)
    test = metrics.read_rd_curve(args.test)
    value = metrics.bd_rate(anchor, test)
    print(f"bd-rate: {value:+.4f}% (negative = test saves bits)")
    return EXIT_OK


def _add_fit_epsilon(sub):
    p = sub.add_parser("fit-epsilon",
                       help="fit the blend schedule to (mse, epsilon) "
                            "calibration points")
    p.add_argument("points", type=Path,
                   help="CSV with mse and epsilon columns")
    p.add_argument("--out", type=Path, required=True,
                   help="write the fitted schedule as JSON")


def _cmd_fit_epsilon(args) -> int:
    _check_outputs(args.out, inputs=(args.points,))
    points = metrics.read_csv_columns(args.points, [("mse",), ("epsilon",)])
    schedule, residual = fit_schedule(points)
    payload = (f'{{\n  "a": {schedule.a!r},\n  "b": {schedule.b!r},\n'
               f'  "fit_residual": {residual!r}\n}}\n')
    _write_atomic(args.out, [payload.encode()])
    flag = " (b = 0: constant epsilon)" if schedule.b == 0 else ""
    print(f"fitted schedule: a={schedule.a:.8g} b={schedule.b:.8g}, "
          f"residual={residual:.3e}{flag}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clipcodec",
        description="Clip-wise neural video codec: one small implicit "
                    "model per clip, coded against its predecessor.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_encode(sub)
    _add_decode(sub)
    _add_eval(sub)
    _add_bdrate(sub)
    _add_fit_epsilon(sub)
    return parser


_HANDLERS = {
    "synth": _cmd_synth,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "bdrate": _cmd_bdrate,
    "fit-epsilon": _cmd_fit_epsilon,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout stopped early (``| head``): not an error of
        # the command.  Later flushes of stdout go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (BitstreamError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
