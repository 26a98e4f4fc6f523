"""CLI workflows and exit-code contract."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clipcodec
from clipcodec import cli, detmath
from clipcodec.bitstream import BitstreamReader
from clipcodec.cli import main
from clipcodec.errors import DataError
from clipcodec.manifest import RunManifest
from clipcodec.metrics import psnr
from clipcodec.pipeline import (TrainConfig, decode_video, encode_video,
                                partition)
from clipcodec.presets import nerv_lite_preset
from clipcodec.video import load_raw
from conftest import HOSTILE_BYTES, HOSTILE_HEADERS, hostile_stream

COMMON = ["--width", "16", "--height", "16"]
# 2-frame clips, 2 clips per group: 8 frames make two GOMs, each I + P
ENCODE_FAST = ["-p", "2", "-m", "2", "--epochs-i", "4", "--epochs-p", "3",
               "--seed", "7"]
# sha256 of the workdir fixture's out.bits: the CLI's defaults for lambda,
# learning rate, blend schedule and warm-up, pinned
CLI_STREAM_SHA256 = \
    "7ef2393cfb8da5e4af24becafc90f06d9a05ac4b4b9d4a656b9323dfcbb85dc3"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    assert main(["synth", str(path / "in.rgb"), "--kind", "moving-blob",
                 "--velocity", "1", "--frames", "8", "--seed", "5",
                 *COMMON]) == 0
    assert main(["encode", str(path / "in.rgb"), "--out",
                 str(path / "out.bits"), "--csv", str(path / "rd.csv"),
                 "--log", str(path / "train.jsonl"), *COMMON,
                 *ENCODE_FAST]) == 0
    return path


def test_synth_expected_size(tmp_path):
    out = tmp_path / "v.rgb"
    assert main(["synth", str(out), "--kind", "static", "--width", "32",
                 "--height", "32", "--frames", "60"]) == 0
    assert out.stat().st_size == 184320  # 3 * 32 * 32 * 60


def test_cli_stream_is_pinned(workdir):
    data = (workdir / "out.bits").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CLI_STREAM_SHA256


def test_library_defaults_encode_the_cli_stream(workdir):
    video = load_raw(workdir / "in.rgb", 16, 16)
    result = encode_video(video, partition(video.frame_count, 2, 2),
                          nerv_lite_preset(16, 16),
                          TrainConfig(epochs_i=4, epochs_p=3, seed=7))
    assert result.data == (workdir / "out.bits").read_bytes()


def test_encode_decode_eval_closure(workdir):
    assert main(["decode", str(workdir / "out.bits"),
                 str(workdir / "dec.rgb")]) == 0
    ref = load_raw(workdir / "in.rgb", 16, 16)
    dec = load_raw(workdir / "dec.rgb", 16, 16)
    with open(workdir / "rd.csv", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["psnr_db"]) == pytest.approx(psnr(ref, dec).mean,
                                                  abs=1e-6)
    assert float(row["bpp"]) == pytest.approx(
        (workdir / "out.bits").stat().st_size * 8 / (8 * 16 * 16), abs=1e-9)


def test_decode_single_gom_matches_full(workdir):
    assert main(["decode", str(workdir / "out.bits"),
                 str(workdir / "full.rgb")]) == 0
    assert main(["decode", str(workdir / "out.bits"),
                 str(workdir / "frag.rgb"), "--gom", "1"]) == 0
    full = load_raw(workdir / "full.rgb", 16, 16)
    frag = load_raw(workdir / "frag.rgb", 16, 16)
    assert np.array_equal(frag.frames, full.frames[4:8])


def test_decode_from_a_pipe_equals_the_file_decode(workdir, tmp_path):
    # a pipe cannot seek, so the reader reads it whole first; the stream
    # fits the pipe's buffer, so it is written before the decode starts
    data = (workdir / "out.bits").read_bytes()
    assert main(["decode", str(workdir / "out.bits"),
                 str(tmp_path / "file.rgb")]) == 0
    for args in ([], ["--gom", "1"]):
        read, write = os.pipe()
        try:
            os.write(write, data)
            os.close(write)
            assert main(["decode", f"/dev/fd/{read}",
                         str(tmp_path / "pipe.rgb"), *args]) == 0
        finally:
            os.close(read)
        full = (tmp_path / "file.rgb").read_bytes()
        assert (tmp_path / "pipe.rgb").read_bytes() == (
            full[len(full) // 2:] if args else full)


def test_run_log_records_epochs(workdir):
    lines = [json.loads(line)
             for line in (workdir / "train.jsonl").read_text().splitlines()]
    assert lines
    assert {"model", "role", "epoch", "loss_r", "loss_d", "lr"} <= \
        set(lines[0])
    models = {line["model"] for line in lines}
    assert models == set(range(4))  # 8 frames in clips of 2


def test_dump_header_mode(workdir, capsys):
    assert main(["decode", str(workdir / "out.bits"),
                 "--dump-header"]) == 0
    out = capsys.readouterr().out
    assert "gop_size=2" in out and "role=P" in out


def test_manifest_rerun_is_byte_identical(workdir):
    manifest = workdir / "out.bits.manifest.json"
    assert manifest.exists()
    assert main(["encode", "--from-manifest", str(manifest), "--out",
                 str(workdir / "again.bits")]) == 0
    assert (workdir / "again.bits").read_bytes() == \
        (workdir / "out.bits").read_bytes()


@pytest.mark.parametrize("cpus", [1, 3])
def test_manifest_rerun_equal_at_any_cpu_count(workdir, tmp_path,
                                               monkeypatch, cpus):
    # the process count changes no byte, so the manifest records none, and
    # a re-run on one CPU or on three gives the same stream
    manifest = workdir / "out.bits.manifest.json"
    assert "jobs" not in json.loads(manifest.read_text())
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    again = tmp_path / "again.bits"
    assert main(["encode", "--from-manifest", str(manifest), "--out",
                 str(again)]) == 0
    assert again.read_bytes() == (workdir / "out.bits").read_bytes()


def test_manifest_rerun_refuses_a_changed_input(workdir, tmp_path, capsys,
                                                monkeypatch):
    # the input named by the manifest was overwritten with another video of
    # the same size: refused before any training, with nothing written
    video = tmp_path / "in.rgb"
    video.write_bytes((workdir / "in.rgb").read_bytes())
    raw = json.loads((workdir / "out.bits.manifest.json").read_text())
    assert raw["input_sha256"] == \
        hashlib.sha256(video.read_bytes()).hexdigest()
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(dict(raw, input_path=str(video))))
    assert main(["synth", str(video), "--kind", "moving-blob", "--velocity",
                 "1", "--frames", "8", "--seed", "6", *COMMON]) == 0
    encodes = []
    monkeypatch.setattr(cli, "encode_video",
                        lambda *args: encodes.append(args)
                        or encode_video(*args))
    out = tmp_path / "again.bits"
    assert main(["encode", "--from-manifest", str(manifest), "--out",
                 str(out)]) == 3
    assert not encodes and sorted(tmp_path.iterdir()) == [video, manifest]
    err = capsys.readouterr().err
    assert str(video) in err and raw["input_sha256"] in err


def test_input_and_manifest_together_exit_2(workdir, tmp_path, capsys):
    out = tmp_path / "never.bits"
    assert main(["encode", str(workdir / "in.rgb"), "--from-manifest",
                 str(workdir / "out.bits.manifest.json"), "--out",
                 str(out)]) == 2
    assert not out.exists()
    assert "not both" in capsys.readouterr().err


# every encode setting with a value; the manifest holds them all
ENCODE_SETTINGS = {
    "--width": "8", "--height": "8", "--gop": "4", "--gom": "1",
    "--tier": "tiny", "--backbone-config": "b.cfg", "--lambda": "3",
    "--epochs-i": "9", "--epochs-p": "9", "--lr": "0.1", "--seed": "3"}


def test_manifest_rerun_with_encode_settings_exits_2(workdir, tmp_path,
                                                     capsys):
    # a setting given next to --from-manifest would be ignored, so it is
    # refused before any work, each one named; the output flags stay
    manifest = str(workdir / "out.bits.manifest.json")
    given = [part for item in ENCODE_SETTINGS.items() for part in item]
    assert main(["encode", "--from-manifest", manifest, "--out",
                 str(tmp_path / "m.bits"), "--csv", str(tmp_path / "r.csv"),
                 "--log", str(tmp_path / "t.jsonl"), "--sequence", "s",
                 "--emit-manifest", str(tmp_path / "m.json"), *given]) == 2
    assert not list(tmp_path.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert all(flag in err for flag in ENCODE_SETTINGS)
    assert main(["encode", "--from-manifest", manifest, "--out",
                 str(tmp_path / "m.bits"), "-p", "4"]) == 2
    assert "--gop" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# older setuptools flags its own [tool.setuptools] table as beta
@pytest.mark.filterwarnings("ignore:Support for .*tool.setuptools")
def test_package_version_is_the_module_version():
    # pyproject.toml reads its version from clipcodec.__version__, the
    # value the manifest records as tool_version
    from setuptools.config.pyprojecttoml import read_configuration
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert read_configuration(pyproject)["project"]["version"] == \
        clipcodec.__version__


def test_v1_manifest_with_thread_count_is_refused(workdir, tmp_path):
    # version 1 carried a thread_count field that nothing set, version 2 a
    # schedule_c that every producer set to 0, version 3 a jobs count that
    # changed no byte, version 4 a warmup_frac that every producer set to
    # 0.1; version 5 drops all four, so an older file is refused for its
    # version, not its fields
    raw = json.loads((workdir / "out.bits.manifest.json").read_text())
    assert raw["manifest_version"] == 5
    assert not {"thread_count", "schedule_c", "jobs", "warmup_frac"} & \
        set(raw)
    assert raw["tool_version"] == clipcodec.__version__
    for version, extra in ((1, dict(thread_count=1, schedule_c=0.0)),
                           (2, dict(schedule_c=0.0)), (3, dict(jobs=2)),
                           (4, dict(warmup_frac=0.1))):
        old = tmp_path / f"v{version}.manifest.json"
        old.write_text(json.dumps(dict(raw, manifest_version=version,
                                       **extra)))
        with pytest.raises(DataError,
                           match=f"unsupported manifest version {version}"):
            RunManifest.load(old)
        out = tmp_path / f"v{version}.bits"
        assert main(["encode", "--from-manifest", str(old), "--out",
                     str(out)]) == 3
        assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("epochs_i", "5"), ("lam", "1e6"), ("gop_size", "2"),
    ("schedule_b", None), ("seed", True), ("input_path", 5),
    ("lr_i", [0.01])])
def test_manifest_field_of_wrong_type_exits_3(workdir, tmp_path, capsys,
                                              field, value):
    raw = json.loads((workdir / "out.bits.manifest.json").read_text())
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(json.dumps(dict(raw, **{field: value})))
    out = tmp_path / "never.bits"
    assert main(["encode", "--from-manifest", str(bad), "--out",
                 str(out)]) == 3
    assert not out.exists()
    assert repr(field) in capsys.readouterr().err


def test_manifest_takes_an_integer_for_a_float(workdir, tmp_path):
    raw = json.loads((workdir / "out.bits.manifest.json").read_text())
    assert raw["lam"] == 1e6
    path = tmp_path / "int.manifest.json"
    path.write_text(json.dumps(dict(raw, lam=1000000)))
    lam = RunManifest.load(path).train_config().lam
    assert lam == 1e6 and type(lam) is float


def test_manifest_not_an_object_exits_3(tmp_path):
    bad = tmp_path / "list.manifest.json"
    bad.write_text("[]")
    assert main(["encode", "--from-manifest", str(bad), "--out",
                 str(tmp_path / "never.bits")]) == 3


def test_manifest_not_utf8_exits_3(tmp_path, capsys):
    bad = tmp_path / "latin1.manifest.json"
    bad.write_bytes(b'{"lam": "\xe9"}')
    out = tmp_path / "never.bits"
    assert main(["encode", "--from-manifest", str(bad), "--out",
                 str(out)]) == 3
    assert not out.exists()
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("lam", "NaN"), ("lr_i", "Infinity"), ("schedule_b", "NaN"),
    ("schedule_a", "-Infinity"), ("lr_p", "1e400")])
def test_manifest_non_finite_number_exits_3_before_reading_input(
        workdir, tmp_path, capsys, monkeypatch, field, value):
    # json reads NaN, Infinity and an overflowing literal as floats; the
    # manifest refuses them before the input is read or a model trains
    text = (workdir / "out.bits.manifest.json").read_text()
    raw = json.loads(text)
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(text.replace(f'"{field}": {json.dumps(raw[field])}',
                                f'"{field}": {value}'))
    assert json.loads(bad.read_text())[field] != raw[field]
    loads = []
    monkeypatch.setattr(cli.videomod, "load_raw",
                        lambda *args: loads.append(args) or load_raw(*args))
    out = tmp_path / "never.bits"
    assert main(["encode", "--from-manifest", str(bad), "--out",
                 str(out)]) == 3
    assert not out.exists() and not loads
    assert repr(field) in capsys.readouterr().err


def test_missing_input_exits_3_without_partial_output(tmp_path):
    out = tmp_path / "never.bits"
    code = main(["encode", str(tmp_path / "absent.rgb"), "--out", str(out),
                 *COMMON, *ENCODE_FAST])
    assert code == 3
    assert not out.exists()


def test_corrupted_stream_exits_3(workdir, tmp_path, capsys):
    blob = bytearray((workdir / "out.bits").read_bytes())
    blob[-10] ^= 0x40  # payload byte
    bad = tmp_path / "bad.bits"
    bad.write_bytes(bytes(blob))
    code = main(["decode", str(bad), str(tmp_path / "x.rgb")])
    assert code == 3
    err = capsys.readouterr().err
    assert "offset" in err
    # group 0 decodes and is written before group 1 fails its CRC; the
    # partial temporary file goes with the error
    assert not list(tmp_path.glob("x.rgb*"))


def test_cut_stream_exits_3_and_writes_nothing(workdir, tmp_path):
    cut = tmp_path / "cut.bits"
    cut.write_bytes((workdir / "out.bits").read_bytes()[:-1])
    assert main(["decode", str(cut), str(tmp_path / "cut.rgb")]) == 3
    assert not list(tmp_path.glob("cut.rgb*"))


@pytest.mark.parametrize("edit", [edit for _, edit in HOSTILE_HEADERS
                                  + HOSTILE_BYTES],
                         ids=[name for name, _ in HOSTILE_HEADERS
                              + HOSTILE_BYTES])
def test_hostile_header_exits_3(workdir, tmp_path, capsys, edit):
    bad = tmp_path / "bad.bits"
    bad.write_bytes(hostile_stream((workdir / "out.bits").read_bytes(), edit))
    out = tmp_path / "x.rgb"
    assert main(["decode", str(bad), str(out)]) == 3
    assert main(["decode", str(bad), str(out), "--gom", "0"]) == 3
    assert main(["decode", str(bad), "--dump-header"]) == 3
    assert "data error" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["decode"])  # missing positional
    assert excinfo.value.code == 2


@pytest.mark.parametrize("setting", [
    ["--seed", "-1"], ["--seed", str(2 ** 64)], ["--lambda", "nan"],
    ["--lambda", "inf"], ["--lr", "inf"]], ids="=".join)
def test_bad_train_setting_exits_2_before_reading_input(tmp_path, capsys,
                                                        setting):
    # refused up front: the input is never read (it does not exist here),
    # and no model is trained
    out = tmp_path / "never.bits"
    assert main(["encode", str(tmp_path / "missing.rgb"), "--out", str(out),
                 *COMMON, *ENCODE_FAST, *setting]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_manifest_seed_outside_64_bits_exits_2(workdir, tmp_path, seed):
    raw = json.loads((workdir / "out.bits.manifest.json").read_text())
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(json.dumps(dict(raw, seed=seed)))
    out = tmp_path / "never.bits"
    assert main(["encode", "--from-manifest", str(bad), "--out",
                 str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("velocity", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["moving-blob", "noise-texture-pan"])
def test_synth_non_finite_velocity_exits_3(tmp_path, kind, velocity):
    out = tmp_path / "x.rgb"
    assert main(["synth", str(out), "--kind", kind,
                 f"--velocity={velocity}", "--frames", "2", *COMMON]) == 3
    assert not list(tmp_path.iterdir())


def test_non_integer_backbone_config_exits_2(workdir, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("kind = nerv-lite\npe_frequencies = many\n")
    out = tmp_path / "never.bits"
    assert main(["encode", str(workdir / "in.rgb"), "--out", str(out),
                 "--backbone-config", str(config), *COMMON,
                 *ENCODE_FAST]) == 2
    assert not out.exists()


def test_bad_gom_index_exits_2(workdir):
    assert main(["decode", str(workdir / "out.bits"),
                 str(workdir / "y.rgb"), "--gom", "99"]) == 2


def test_eval_command(workdir, capsys):
    assert main(["eval", str(workdir / "in.rgb"), str(workdir / "in.rgb"),
                 *COMMON]) == 0
    assert "100.0" in capsys.readouterr().out  # capped PSNR


def test_bdrate_command(tmp_path, capsys):
    for name, scale in (("a.csv", 1.0), ("b.csv", 0.5)):
        with open(tmp_path / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bpp", "psnr"])
            for bpp, quality in ((0.1, 30), (0.2, 33), (0.4, 36), (0.8, 39)):
                writer.writerow([bpp * scale, quality])
    assert main(["bdrate", str(tmp_path / "a.csv"),
                 str(tmp_path / "b.csv")]) == 0
    assert "-50.0" in capsys.readouterr().out


def test_fit_epsilon_command(tmp_path, capsys):
    points = tmp_path / "points.csv"
    with open(points, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mse", "epsilon"])
        for mse in (0.02, 0.1, 0.5, 1.1, 2.5):
            writer.writerow([mse, 1.0 - float(detmath.exp(-0.8 * mse))])
    out = tmp_path / "sched.json"
    assert main(["fit-epsilon", str(points), "--out", str(out)]) == 0
    import json
    sched = json.loads(out.read_text())
    assert sched["b"] == pytest.approx(0.8, abs=1e-6)
    assert set(sched) == {"a", "b", "fit_residual"}


def test_constant_fit_encodes_from_a_manifest(workdir, tmp_path, capsys):
    # a fit of constant data is the schedule b = 0, epsilon = 1 - a, and a
    # manifest carries it into an encode like any other schedule
    points = tmp_path / "points.csv"
    points.write_text("mse,epsilon\n0.01,0.3\n0.1,0.3\n0.5,0.3\n")
    fitted = tmp_path / "sched.json"
    assert main(["fit-epsilon", str(points), "--out", str(fitted)]) == 0
    assert "constant epsilon" in capsys.readouterr().out
    sched = json.loads(fitted.read_text())
    assert sched["b"] == 0.0 and sched["a"] == pytest.approx(0.7)
    raw = json.loads((workdir / "out.bits.manifest.json").read_text())
    manifest = tmp_path / "constant.manifest.json"
    manifest.write_text(json.dumps(dict(raw, schedule_a=sched["a"],
                                        schedule_b=sched["b"])))
    out = tmp_path / "constant.bits"
    assert main(["encode", "--from-manifest", str(manifest), "--out",
                 str(out)]) == 0
    records = BitstreamReader.from_bytes(out.read_bytes()).header.records
    assert [rec.role for rec in records] == ["I", "P", "I", "P"]
    for rec in records[1::2]:
        assert rec.epsilon == pytest.approx(0.3, abs=1e-6)


@pytest.mark.parametrize("command, content", [
    ("eval", None),
    ("bdrate", None), ("bdrate", "bpp,psnr\n2,abc\n"),
    ("bdrate", "bpp,psnr\n2\n"),
    ("fit-epsilon", None), ("fit-epsilon", "mse,epsilon\n2,abc\n"),
    ("fit-epsilon", "mse,epsilon\n2\n"),
    # a whole curve or point set but for one non-finite cell
    ("bdrate", "bpp,psnr\n0.1,nan\n0.2,33\n0.4,36\n0.8,39\n"),
    ("bdrate", "bpp,psnr\ninf,30\n0.2,33\n0.4,36\n0.8,39\n"),
    ("fit-epsilon", "mse,epsilon\nnan,0.5\n0.1,0.2\n0.5,0.6\n1.0,0.8\n"),
    ("encode", None),
], ids=["eval-missing", "bdrate-missing", "bdrate-not-a-number",
        "bdrate-short-row", "fit-epsilon-missing", "fit-epsilon-not-a-number",
        "fit-epsilon-short-row", "bdrate-nan", "bdrate-inf",
        "fit-epsilon-nan", "encode-config-missing"])
def test_unreadable_input_exits_3_naming_the_file(workdir, tmp_path, capsys,
                                                  command, content):
    bad = tmp_path / "input.csv"
    if content is not None:
        bad.write_text(content)
    args = {
        "eval": ["eval", str(bad), str(workdir / "in.rgb"), *COMMON],
        "bdrate": ["bdrate", str(bad), str(bad)],
        "fit-epsilon": ["fit-epsilon", str(bad), "--out",
                        str(tmp_path / "sched.json")],
        "encode": ["encode", str(workdir / "in.rgb"), "--out",
                   str(tmp_path / "never.bits"), "--backbone-config",
                   str(bad), *COMMON, *ENCODE_FAST],
    }[command]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err
    if content is not None:
        assert "line 2" in err
    assert not list(tmp_path.glob("never.bits*"))
    assert not list(tmp_path.glob("sched.json*"))


@pytest.mark.parametrize("case", [
    "decode-from-directory", "decode-out", "synth-out", "fit-epsilon-out",
    "encode-out", "encode-csv", "encode-log", "encode-emit-manifest"])
def test_unwritable_output_exits_3_before_any_work(workdir, tmp_path, capsys,
                                                   monkeypatch, case):
    encodes = []
    monkeypatch.setattr("clipcodec.cli.encode_video",
                        lambda *args, **kwargs: encodes.append(args))
    missing = tmp_path / "missing" / "x.out"
    bits, out = str(workdir / "out.bits"), str(tmp_path / "x.rgb")
    points = tmp_path / "points.csv"
    points.write_text("mse,epsilon\n0.1,0.2\n0.5,0.6\n1.0,0.8\n")
    encode = ["encode", str(workdir / "in.rgb"), "--out",
              str(tmp_path / "x.bits"), *COMMON, *ENCODE_FAST]
    args, named = {
        "decode-from-directory": (["decode", str(tmp_path), out], tmp_path),
        "decode-out": (["decode", bits, str(missing)], missing),
        "synth-out": (["synth", str(missing), *COMMON], missing),
        "fit-epsilon-out": (["fit-epsilon", str(points), "--out",
                             str(missing)], missing),
        "encode-out": (["encode", str(workdir / "in.rgb"), "--out",
                        str(missing), *COMMON, *ENCODE_FAST], missing),
        "encode-csv": (encode + ["--csv", str(missing)], missing),
        "encode-log": (encode + ["--log", str(missing)], missing),
        "encode-emit-manifest": (encode + ["--emit-manifest", str(missing)],
                                 missing),
    }[case]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(named) in err
    assert not encodes
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("case", [
    "manifest-is-out", "csv-is-log", "default-manifest-is-log",
    "log-is-input", "out-is-input-spelled-otherwise", "out-is-manifest-read",
    "csv-is-backbone-config", "log-is-manifest-input", "decode-out-is-stream",
    "fit-epsilon-out-is-points"])
def test_output_naming_another_file_exits_3_and_writes_nothing(
        workdir, tmp_path, capsys, monkeypatch, case):
    # two outputs of one command, or an output and an input, that name one
    # file would leave one of them over the other
    encodes = []
    monkeypatch.setattr("clipcodec.cli.encode_video",
                        lambda *args, **kwargs: encodes.append(args))
    monkeypatch.chdir(tmp_path)
    for name in ("in.rgb", "out.bits", "out.bits.manifest.json"):
        (tmp_path / name).write_bytes((workdir / name).read_bytes())
    manifest = json.loads((tmp_path / "out.bits.manifest.json").read_text())
    manifest["input_path"] = "in.rgb"
    (tmp_path / "run.json").write_text(json.dumps(manifest))
    (tmp_path / "net.cfg").write_text(manifest["backbone_config"])
    (tmp_path / "points.csv").write_text(
        "mse,epsilon\n0.1,0.2\n0.5,0.6\n1.0,0.8\n")
    (tmp_path / "sub").mkdir()
    encode = ["encode", "in.rgb", *COMMON, *ENCODE_FAST]
    args = {
        "manifest-is-out": encode + ["--out", "same.bits", "--emit-manifest",
                                     "same.bits"],
        "csv-is-log": encode + ["--out", "x.bits", "--csv", "r.csv", "--log",
                                "r.csv"],
        "default-manifest-is-log": encode + ["--out", "x.bits", "--log",
                                             "x.bits.manifest.json"],
        "log-is-input": encode + ["--out", "x.bits", "--log", "in.rgb"],
        "out-is-input-spelled-otherwise": encode + ["--out",
                                                    "sub/../in.rgb"],
        "out-is-manifest-read": ["encode", "--from-manifest", "run.json",
                                 "--out", "run.json"],
        "csv-is-backbone-config": encode + ["--out", "x.bits",
                                            "--backbone-config", "net.cfg",
                                            "--csv", "net.cfg"],
        "log-is-manifest-input": ["encode", "--from-manifest", "run.json",
                                  "--out", "x.bits", "--log", "in.rgb"],
        "decode-out-is-stream": ["decode", "out.bits", str(tmp_path /
                                                           "out.bits")],
        "fit-epsilon-out-is-points": ["fit-epsilon", "points.csv", "--out",
                                      "points.csv"],
    }[case]
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()
              if path.is_file()}
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("data error: cannot write")
    assert not encodes
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()
            if path.is_file()} == before


def _cli_env() -> dict:
    """The environment of a child that imports the same package as this
    process, installed or not."""
    src = str(Path(clipcodec.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src if not path else src + os.pathsep + path)


def test_cli_entrypoint_via_subprocess(tmp_path):
    """The installed console script behaves like main()."""
    out = tmp_path / "tiny.rgb"
    proc = subprocess.run(
        [sys.executable, "-m", "clipcodec.cli", "synth", str(out),
         "--width", "8", "--height", "8", "--frames", "2"],
        capture_output=True, text=True, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size == 3 * 8 * 8 * 2


@pytest.mark.parametrize("command", [["--dump-header"], ["x.rgb"]],
                         ids=["dump-header", "decode"])
def test_closed_stdout_exits_0_quietly(workdir, tmp_path, command):
    # a reader that stops early (``| head -n 1``) closes the pipe: the
    # command still does its work and exits 0, with no traceback
    read_fd, write_fd = os.pipe()
    os.close(read_fd)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clipcodec.cli", "decode",
             str(workdir / "out.bits"), *command], cwd=tmp_path,
            stdout=write_fd, stderr=subprocess.PIPE, text=True,
            env=_cli_env())
    finally:
        os.close(write_fd)
    assert (proc.returncode, proc.stderr) == (0, "")
    if command == ["x.rgb"]:
        decoded = decode_video((workdir / "out.bits").read_bytes())
        assert (tmp_path / "x.rgb").read_bytes() == decoded.frames.tobytes()


def test_default_manifest_path_a_directory_exits_3_before_any_work(
        workdir, tmp_path, capsys, monkeypatch):
    # <out>.manifest.json is an output too, even when not named
    encodes = []
    monkeypatch.setattr("clipcodec.cli.encode_video",
                        lambda *args, **kwargs: encodes.append(args))
    manifest = tmp_path / "x.bits.manifest.json"
    manifest.mkdir()
    assert main(["encode", str(workdir / "in.rgb"), "--out",
                 str(tmp_path / "x.bits"), *COMMON, *ENCODE_FAST]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(manifest) in err
    assert not encodes
    assert [path.name for path in tmp_path.iterdir()] == [manifest.name]
    assert not list(manifest.iterdir())


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_outputs_get_the_mode_open_gives(tmp_path, umask):
    # every output is created 0o666 less the umask, as by a plain open
    old = os.umask(umask)
    try:
        assert main(["synth", str(tmp_path / "in.rgb"), "--frames", "4",
                     *COMMON]) == 0
        assert main(["encode", str(tmp_path / "in.rgb"), "--out",
                     str(tmp_path / "out.bits"), "--log",
                     str(tmp_path / "t.jsonl"), *COMMON, "-p", "2", "-m",
                     "1", "--epochs-i", "1"]) == 0
        assert main(["decode", str(tmp_path / "out.bits"),
                     str(tmp_path / "out.rgb")]) == 0
        (tmp_path / "points.csv").write_text(
            "mse,epsilon\n0.1,0.2\n0.5,0.6\n1.0,0.8\n")
        assert main(["fit-epsilon", str(tmp_path / "points.csv"), "--out",
                     str(tmp_path / "e.json")]) == 0
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777
             for path in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["in.rgb", "out.bits", "t.jsonl", "out.bits.manifest.json",
         "out.rgb", "points.csv", "e.json"], 0o666 & ~umask)
