"""Work model of the resunet forward pass, computed from parameter shapes.

The network pads an input [C, T, F] up to a multiple of 2**levels in T
and F, and a conv at U-Net level l runs on (Tp >> l) x (Fp >> l)
pixels; the head runs at level 0. For every conv:

    flop  = 2 * out * in * kh * kw * pixels
    bytes = 4 * (in * pixels + out * pixels + out * in * kh * kw + bias)

`bytes` is the least float32 traffic a conv can cause: read its input and
weights once and write its output once. Both numbers are computed, not
measured, and ignore pooling, upsampling, activations and adds.
"""

from __future__ import annotations

import re

_LEVEL = re.compile(r"^(?:enc|dec)(\d+)\.")


def conv_table(params: dict, levels: int, t: int, f: int):
    """(name, out, in, kh, kw, pixels, bias) for every conv of a parameter table."""
    mult = 2**levels
    tp, fp = t + (-t) % mult, f + (-f) % mult
    rows = []
    for name, value in params.items():
        if not name.endswith(".weight"):
            continue
        m = _LEVEL.match(name)
        lvl = int(m.group(1)) if m else 0
        o, c, kh, kw = value.shape
        bias = o if name[: -len("weight")] + "bias" in params else 0
        rows.append((name, o, c, kh, kw, (tp >> lvl) * (fp >> lvl), bias))
    return rows


def forward_work(params: dict, levels: int, t: int, f: int):
    """(flop, bytes) of one forward pass on an input with T=t frames and F=f bins."""
    flop = nbytes = 0
    for _, o, c, kh, kw, px, bias in conv_table(params, levels, t, f):
        flop += 2 * o * c * kh * kw * px
        nbytes += 4 * (c * px + o * px + o * c * kh * kw + bias)
    return flop, nbytes
