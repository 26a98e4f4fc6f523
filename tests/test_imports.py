"""The package needs numpy only, and its encode/decode path loads no heavy
standard-library machinery.

The codec, ε calibration (``fit_schedule``) and rate-curve comparison
(``bd_rate``) all run with scipy made unimportable, and load no ``scipy``
module.  A whole-video encode or decode forks its workers with
``os.fork``, so it loads neither ``multiprocessing`` nor
``concurrent.futures.process``.  The check runs in a fresh interpreter:
pytest and the other tests have loaded scipy into this one long ago.
"""

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
# fork
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
    # the two-group encode, the two-group decode_video and the CLI decode
    assert report["forks"] == 3
    # the tools work without scipy
    assert abs(report["bd_rate"] - (-10.0)) < 1e-9
    assert report["b"] > 0
    assert report["scipy"] == []
