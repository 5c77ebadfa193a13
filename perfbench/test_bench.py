"""The benchmark's resunet work model and float64 reference network.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import refnet  # noqa: E402
from cwsep import resunet  # noqa: E402
from workmodel import conv_table, forward_work  # noqa: E402

# `tiny` (8 in-channels, levels of 4 and 8 channels, one block each, one
# source) on a 64x64 input: level 0 runs at 64*64 = 4096 pixels, level 1
# at 32*32 = 1024. Rows: (out, in, kernel, pixels, has bias).
TINY_BY_HAND = [
    (4, 8, 3, 4096, 1), (4, 4, 3, 4096, 1), (4, 8, 1, 4096, 0),  # enc0.block0 conv1, conv2, shortcut
    (8, 4, 3, 1024, 1), (8, 8, 3, 1024, 1), (8, 4, 1, 1024, 0),  # enc1.block0
    (8, 8, 3, 1024, 1),  # dec1.upsample
    (8, 16, 3, 1024, 1), (8, 8, 3, 1024, 1), (8, 16, 1, 1024, 0),  # dec1.block0 after concat
    (4, 8, 3, 4096, 1),  # dec0.upsample
    (4, 8, 3, 4096, 1), (4, 4, 3, 4096, 1), (4, 8, 1, 4096, 0),  # dec0.block0 after concat
    (32, 4, 3, 4096, 0),  # head: 4 tensors x 8 channels, no bias
]


def _params(preset):
    return resunet.build(resunet.PRESETS[preset]).params


def test_conv_counts_of_presets():
    assert len(conv_table(_params("vocals-276"), 5, 1003, 257)) == 276
    assert len(conv_table(_params("other-166"), 3, 1003, 257)) == 166
    assert len(conv_table(_params("tiny"), 2, 64, 64)) == len(TINY_BY_HAND) == 15


def test_tiny_matches_hand_count():
    flop = sum(2 * o * c * k * k * px for o, c, k, px, _ in TINY_BY_HAND)
    nbytes = sum(4 * (c * px + o * px + o * c * k * k + (o if b else 0)) for o, c, k, px, b in TINY_BY_HAND)
    assert flop == 26_214_400
    assert forward_work(_params("tiny"), 2, 64, 64) == (flop, nbytes)


def test_padding_rounds_up_to_the_level_multiple():
    # two levels pad to a multiple of 4: 61 x 57 runs as 64 x 60
    assert forward_work(_params("tiny"), 2, 61, 57) == forward_work(_params("tiny"), 2, 64, 60)
    assert forward_work(_params("tiny"), 2, 61, 57) != forward_work(_params("tiny"), 2, 64, 64)


def test_reference_forward_matches_the_package_on_tiny(tmp_path):
    model = resunet.init_random(resunet.build(resunet.PRESETS["tiny"]), 3)
    path = tmp_path / "tiny.cwsw"
    resunet.write_store(resunet.save_weights(model), path)
    mag = np.abs(np.random.default_rng(4).standard_normal((8, 13, 21))).astype(np.float32)
    got = np.stack([[o.mask_logits, o.phase_real, o.phase_imag, o.mag_residual] for o in model.forward(mag)])
    config, params = refnet.read_cwsw(path)
    ref = refnet.forward(config, params, mag.astype(np.float64))
    assert ref.shape == got.shape == (1, 4, 8, 13, 21)
    assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))
