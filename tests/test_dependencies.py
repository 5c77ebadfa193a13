"""The package runs on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import cwsep

# Blocks every scipy import, then runs the whole pipeline once.
NO_SCIPY = """
import dataclasses
import importlib.abc
import sys

import numpy as np


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())

import cwsep

fb = cwsep.design_filterbank(2)
config = dataclasses.replace(cwsep.PRESETS["tiny"], in_channels=2 * fb.num_bands)
model = cwsep.init_random(cwsep.build(config), seed=1)
x = 0.1 * np.random.default_rng(1).standard_normal((2, 44100))
(est,) = cwsep.separate(cwsep.Waveform(x, 44100), model, fb)
assert est.samples.shape == x.shape and np.all(np.isfinite(est.samples))
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_pipeline_runs_with_scipy_blocked():
    src = str(Path(cwsep.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
