"""The package needs numpy only, and its encode/decode path loads no heavy
standard-library machinery.  The worker module knows nothing of the
codec, and the pipeline owns no process, pipe or thread.

The codec, ε calibration (``fit_schedule``) and rate-curve comparison
(``bd_rate``) all run with scipy made unimportable, and load no ``scipy``
module.  A whole-video encode or decode, a decode of one group's models
and a one-group encode's training steps use one worker forked with
``os.fork``, so they load neither ``multiprocessing`` nor
``concurrent.futures.process``.  The check runs
in a fresh interpreter: pytest and the other tests have loaded scipy
into this one long ago.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HEAVY = ("concurrent.futures.process", "multiprocessing")

_CODEC_THEN_TOOLS = """
import json, os, sys, tempfile
from pathlib import Path

sys.modules["scipy"] = None  # any import of scipy now raises ImportError

# two usable CPUs whatever the host has, so two-group encodes and decodes
# and two-model group decodes use the worker
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()

import clipcodec
import clipcodec.cli
from clipcodec import (BackboneConfig, BitstreamReader, RDPoint,
                       TrainConfig, UpsampleStage, bd_rate, decode_gom,
                       decode_video, encode_video, fit_schedule, partition,
                       synth_video)

config = BackboneConfig(
    kind="nerv-lite", pe_frequencies=4, stem_width=8, base_channels=4,
    base_height=4, base_width=4,
    stages=(UpsampleStage(2, 4), UpsampleStage(2, 4)),
    frame_height=16, frame_width=16)
video = synth_video("moving-blob", 16, 16, 4, velocity=1.0, seed=3)
result = encode_video(video, partition(4, 2, 2), config,
                      TrainConfig(epochs_i=1, epochs_p=1, seed=3))
two = encode_video(video, partition(4, 2, 1), config,
                   TrainConfig(epochs_i=1, epochs_p=1, seed=3))
decoded = decode_video(result.data)
fragment, _ = decode_gom(BitstreamReader.from_bytes(result.data), 0)
decoded_two = decode_video(two.data)
codes = []
with tempfile.TemporaryDirectory() as tmp:
    for name, data in (("clip", result.data), ("two", two.data)):
        stream = Path(tmp) / f"{name}.bits"
        stream.write_bytes(data)
        codes.append(clipcodec.cli.main(["decode", str(stream),
                                         str(Path(tmp) / f"{name}.rgb")]))
loaded = sorted(name for name in sys.argv[1:] if name in sys.modules)

anchor = [RDPoint(b, q) for b, q in ((1, 30), (2, 33), (3, 35), (4, 36))]
test = [RDPoint(0.9 * p.bpp, p.quality) for p in anchor]
schedule, _ = fit_schedule([(0.0, 0.0), (0.01, 0.3), (0.02, 0.5),
                            (0.05, 0.8)])
print(json.dumps({"loaded": loaded, "cli": codes, "forks": len(forks),
                  "frames": [decoded.frame_count, fragment.frame_count,
                             decoded_two.frame_count],
                  "bd_rate": bd_rate(anchor, test), "b": schedule.b,
                  "scipy": sorted(name for name, module in sys.modules.items()
                                  if name.startswith("scipy")
                                  and module is not None)}))
"""


def test_codec_path_loads_no_heavy_imports():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _CODEC_THEN_TOOLS, *HEAVY],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["cli"] == [0, 0] and report["frames"] == [4, 4, 4]
    # the two-group encode forks the worker; the one-group encode's rate
    # tasks, both decode_video calls, decode_gom and the CLI decodes use
    # the same one
    assert report["forks"] == 1
    # the tools work without scipy
    assert abs(report["bd_rate"] - (-10.0)) < 1e-9
    assert report["b"] > 0
    assert report["scipy"] == []


_DECODE_ONLY = """
import json, os, sys
from pathlib import Path

import clipcodec
from clipcodec import BitstreamReader, decode_gom

before = "numpy.random" in sys.modules
data = Path(sys.argv[1]).read_bytes()
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
forked = decode_gom(BitstreamReader.from_bytes(data), 0)[0].frames
after = "numpy.random" in sys.modules
os.sched_getaffinity = lambda pid: {0}
serial = decode_gom(BitstreamReader.from_bytes(data), 0)[0].frames
print(json.dumps({"before": before, "after": after, "forks": len(forks),
                  "equal": bool((forked == serial).all()),
                  "loaded": sorted(name for name in sys.argv[2:]
                                   if name in sys.modules)}))
"""


def test_decode_only_process_loads_numpy_random_before_it_forks(tmp_path):
    # the parent's half of a two-model group draws no random init, so it
    # is the worker's start that loads numpy.random, once, before the
    # worker that draws the I model's init is forked
    from clipcodec import (BackboneConfig, TrainConfig, UpsampleStage,
                           encode_video, partition, synth_video)
    config = BackboneConfig(
        kind="nerv-lite", pe_frequencies=4, stem_width=8, base_channels=4,
        base_height=4, base_width=4, stages=(UpsampleStage(2, 4),),
        frame_height=8, frame_width=8)
    video = synth_video("moving-blob", 8, 8, 4, velocity=1.0, seed=3)
    stream = tmp_path / "clip.bits"
    stream.write_bytes(encode_video(video, partition(4, 2, 2), config,
                                    TrainConfig(epochs_i=1, epochs_p=1,
                                                seed=3)).data)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _DECODE_ONLY, str(stream),
                          *HEAVY], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report == {"before": False, "after": True, "forks": 1,
                      "equal": True, "loaded": []}


def _imports(module: str) -> set[str]:
    """The modules ``clipcodec/<module>.py`` imports, each as written,
    a relative one with its leading dots."""
    tree = ast.parse((ROOT / "src" / "clipcodec" / module).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_worker_knows_no_codec_and_pipeline_no_process():
    # the worker runs whatever task it is handed; the pipeline hands it
    # tasks through the worker module alone
    assert not [name for name in _imports("worker.py")
                if name.startswith(".") or name.split(".")[0] == "clipcodec"]
    assert not {name.split(".")[0] for name in _imports("pipeline.py")} & {
        "atexit", "os", "pickle", "signal", "threading"}
