"""Float64 reference of the resunet forward pass, for the output check.

Written from the architecture as documented, not from the package's
code: the `.cwsw` file is parsed here, and each 3x3 conv is a sum of
nine shifted channel contractions instead of the package's im2col.

Architecture: per level, residual blocks [conv3x3 -> leaky(0.01) ->
conv3x3] + shortcut (1x1 conv when channel counts differ, else
identity), then 2x2 average pooling; decoder levels upsample by nearest
neighbour, apply conv3x3 + leaky, concatenate [h, skip] and run their
blocks; a bias-free conv3x3 head gives 4 tensors per source.
"""

from __future__ import annotations

import json
import struct

import numpy as np

LEAKY_SLOPE = 0.01
HEADS = 4


def read_cwsw(path):
    """(config dict, name -> float64 array) from a CWSW weight store."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"CWSW":
        raise ValueError(f"{path}: not a CWSW store")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16 : 16 + header_len])
    base = 16 + header_len
    tensors = {}
    for e in header["tensors"]:
        count = int(np.prod(e["shape"]))
        start = base + e["offset"]
        data = np.frombuffer(raw, dtype="<f4", count=count, offset=start)
        tensors[e["name"]] = data.reshape(e["shape"]).astype(np.float64)
    return header["config"], tensors


def _conv(x, w, b=None):
    o, c, kh, kw = w.shape
    hgt, wid = x.shape[1:]
    if kh == 1:
        y = np.einsum("oc,chw->ohw", w[:, :, 0, 0], x)
    else:
        xp = np.zeros((c, hgt + 2, wid + 2))
        xp[:, 1:-1, 1:-1] = x
        y = np.zeros((o, hgt, wid))
        for i in range(3):
            for j in range(3):
                y += np.einsum("oc,chw->ohw", w[:, :, i, j], xp[:, i : i + hgt, j : j + wid])
    if b is not None:
        y += b[:, None, None]
    return y


def _leaky(x):
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def _block(p, prefix, x):
    y = _leaky(_conv(x, p[f"{prefix}.conv1.weight"], p[f"{prefix}.conv1.bias"]))
    y = _conv(y, p[f"{prefix}.conv2.weight"], p[f"{prefix}.conv2.bias"])
    sc = p.get(f"{prefix}.shortcut.weight")
    return y + (x if sc is None else _conv(x, sc))


def forward(config: dict, params: dict, mag: np.ndarray) -> np.ndarray:
    """Network outputs [sources, 4 heads, in_channels, T, F] for mag [in_channels, T, F]."""
    blocks = config["blocks_per_level"]
    levels = len(blocks)
    _, t, f = mag.shape
    mult = 2**levels
    h = np.zeros((mag.shape[0], t + (-t) % mult, f + (-f) % mult))
    h[:, :t, :f] = mag
    skips = []
    for lvl in range(levels):
        for b in range(blocks[lvl]):
            h = _block(params, f"enc{lvl}.block{b}", h)
        skips.append(h)
        h = 0.25 * (h[:, 0::2, 0::2] + h[:, 1::2, 0::2] + h[:, 0::2, 1::2] + h[:, 1::2, 1::2])
    for lvl in reversed(range(levels)):
        h = h.repeat(2, axis=1).repeat(2, axis=2)
        h = _leaky(_conv(h, params[f"dec{lvl}.upsample.weight"], params[f"dec{lvl}.upsample.bias"]))
        h = np.concatenate([h, skips[lvl]], axis=0)
        for b in range(blocks[lvl]):
            h = _block(params, f"dec{lvl}.block{b}", h)
    out = _conv(h, params["head.weight"])[:, :t, :f]
    return out.reshape(config["out_sources"], HEADS, config["in_channels"], t, f)
