"""Configurable residual UNet forward pass over subband magnitude spectrograms.

Symmetric encoder/decoder with skip connections. A residual block is
[conv 3x3 -> leaky-relu(0.01) -> conv 3x3] plus an identity shortcut
(1x1 conv shortcut when channel counts differ), no normalization.
Downsampling is 2x2 average pooling, upsampling is nearest-neighbor
followed by a 3x3 conv; skips fuse by channel concatenation. The final
head is a single bias-free 3x3 conv producing four tensors (mask logits,
phase real/imag, magnitude residual) per source.

Layer counting rule: every convolution counts, including 1x1 shortcuts,
upsample convs, and the head. The bundled presets hit 276 and 166 conv
layers under this rule.

A 3x3 conv is a GEMM per row tile, "row-tap": for a tile of r output
rows it copies only the three column shifts of its r + 2 input rows
(one halo row on each side, zero outside the input) into a
channel-first operand [C, 3, r+2, W] with zero edge columns, multiplies
all three kernel rows at once, [3*O, 3*C] @ [3*C, (r+2)*W], and sums
the three row-shifted [O, r, W] slices of the [3, O, r+2, W] product.
Bias, leaky-ReLU and the residual add then work in place on the tile's
output rows, and only then is the next tile staged, so every pass over
a tile finds it in cache.

A conv's input is a list of channel parts, each a plain array or the
nearest 2x upsample of a low-resolution array, which the staging reads
in place. So a decoder level's upsample conv stages straight from the
level below, and its first block stages [upsampled, skip]: neither the
upsample nor the concatenation is ever built. A 1x1 conv (a residual
shortcut, no bias) is one GEMM per row tile, [O, C] @ [C, r*W], on the
tile's rows of the block's first staged operand: its centre tap, a
strided view that BLAS reads as it is.

The one tile kernel runs a chain of 3x3 convs on each row tile. A
residual block is a chain of two: conv1 computes its tile plus one
halo row on each side from r + 4 staged rows into a tile-sized buffer,
adds its bias, goes through the leaky ReLU and zeroes the rows outside
the image; conv2 stages from that buffer, then adds its bias and the
block's residual (the input, or the 1x1 shortcut of conv1's operand). So
conv1's output never exists as a whole layer. The upsample convs and
the head are chains of one; the head writes only the unpadded [T, F]
output. `forward` drops each skip once its level's first decoder block
has read it. So one `vocals-276` forward on a 10 s segment ([8, 1003,
257]) on two threads peaks at 64.3 MB of live arrays under tracemalloc:
three top-level [16, 1024, 288] layers and the jobs' tile buffers, or
the head's input and output and those buffers. Building the upsample,
the concatenation and each shortcut as whole layers, and cropping a
padded head output, took 115.6 MB.

A chain is cut into the same row tiles whatever the thread count: the
fewest near-equal tiles whose staged operands fit TILE_BYTES. With a
pool passed to `forward`, `min(threads, tiles)` jobs, the calling
thread's among them, each take the next tile no job has taken until
none is left, so a thread that runs slow or starts late takes fewer
tiles; a job no pool thread has started when the calling thread is
done is cancelled. Each job allocates its tile-sized buffers per conv
call: the staged operand, the GEMM output, for a chain the buffer
conv1 feeds conv2, and for a shortcut its [O, r, W] product. A forward
keeps no buffer across layers, so threads may share one Model. A
tile's GEMMs and epilogues are the same calls whichever thread runs
them, so the output is the same bits for every thread count; on the
machine below the per-tile shortcut GEMMs also give the bits of one
whole-layer GEMM. TILE_BYTES is 2 MiB, the L2 cache of one core
of the 2-core Xeon VM it was measured on. There, alternating
`vocals-276` forwards on a 10 s segment at two threads (numpy 2.4.6,
OpenBLAS 0.3.31 at one thread) took a median 2.31 s at 2 MiB and at
4 MiB (4 MiB faster in 4 of 6 rounds) and 2.67 s at 1 MiB, where halo
rows and per-tile calls add up. At least 4 tiles per chain, to spread
the deepest levels over both threads, took 2.46 s against 2.28 s.

Inference only; parameters live in a flat name -> float32 array table
serialized via the CWSW container format.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .cirm import NetworkOutput

LEAKY_SLOPE = 0.01
HEADS_PER_SOURCE = 4

STORE_MAGIC = b"CWSW"
STORE_VERSION = 1


class WeightStoreError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 8
    out_sources: int = 1
    blocks_per_level: tuple = (1, 1)
    channels_per_level: tuple = (4, 8)

    def __post_init__(self):
        for key in ("in_channels", "out_sources"):
            n = getattr(self, key)
            if type(n) is not int or n < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {n!r}")
        for key in ("blocks_per_level", "channels_per_level"):
            levels = getattr(self, key)
            if not isinstance(levels, (list, tuple)) or any(
                type(n) is not int or n < 1 for n in levels
            ):
                raise ValueError(f"{key} must be a sequence of integers >= 1, got {levels!r}")
            object.__setattr__(self, key, tuple(levels))
        if len(self.blocks_per_level) != len(self.channels_per_level):
            raise ValueError(
                "blocks_per_level and channels_per_level must have equal length "
                f"({len(self.blocks_per_level)} vs {len(self.channels_per_level)})"
            )
        if len(self.blocks_per_level) == 0:
            raise ValueError("at least one level required")

    @property
    def num_levels(self) -> int:
        return len(self.blocks_per_level)

    def config_hash(self) -> str:
        """Hash of the architecture."""
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()[:16]


def _param_shapes(config: ModelConfig):
    """Yield (name, shape) for every parameter in canonical order: each weight, then its bias."""
    c_in = config.in_channels
    chans = config.channels_per_level
    prev = c_in
    for lvl, (blocks, ch) in enumerate(zip(config.blocks_per_level, chans)):
        for b in range(blocks):
            bin_ = prev if b == 0 else ch
            yield from _block_shapes(f"enc{lvl}.block{b}", bin_, ch)
        prev = ch
    for lvl in reversed(range(config.num_levels)):
        ch = chans[lvl]
        yield f"dec{lvl}.upsample.weight", (ch, prev, 3, 3)
        yield f"dec{lvl}.upsample.bias", (ch,)
        for b in range(config.blocks_per_level[lvl]):
            bin_ = 2 * ch if b == 0 else ch
            yield from _block_shapes(f"dec{lvl}.block{b}", bin_, ch)
        prev = ch
    out_ch = HEADS_PER_SOURCE * config.out_sources * config.in_channels
    yield "head.weight", (out_ch, prev, 3, 3)


def _block_shapes(prefix: str, cin: int, cout: int):
    yield f"{prefix}.conv1.weight", (cout, cin, 3, 3)
    yield f"{prefix}.conv1.bias", (cout,)
    yield f"{prefix}.conv2.weight", (cout, cout, 3, 3)
    yield f"{prefix}.conv2.bias", (cout,)
    if cin != cout:
        yield f"{prefix}.shortcut.weight", (cout, cin, 1, 1)


def count_layers(config: ModelConfig) -> int:
    """Number of convolutions under the documented counting rule."""
    return sum(name.endswith(".weight") for name, _ in _param_shapes(config))


PRESETS = {
    # 5 levels x 13 blocks: 4*65 + 3*5 + 1 = 276 convs
    "vocals-276": ModelConfig(
        in_channels=8,
        out_sources=1,
        blocks_per_level=(13,) * 5,
        channels_per_level=(16, 32, 48, 64, 80),
    ),
    # 3 levels x 13 blocks: 4*39 + 3*3 + 1 = 166 convs
    "other-166": ModelConfig(
        in_channels=8,
        out_sources=4,
        blocks_per_level=(13,) * 3,
        channels_per_level=(16, 32, 48),
    ),
    "tiny": ModelConfig(
        in_channels=8,
        out_sources=1,
        blocks_per_level=(1, 1),
        channels_per_level=(4, 8),
    ),
}


class Model:
    """Parameter table plus the forward pass. Immutable by convention."""

    def __init__(self, config: ModelConfig, params: dict):
        self.config = config
        self.params = params

    @property
    def in_channels(self) -> int:
        return self.config.in_channels

    @property
    def out_sources(self) -> int:
        return self.config.out_sources

    def forward(self, mag: np.ndarray, pool=None):
        """Map a magnitude tensor [in_channels, T, F] to NetworkOutputs.

        Returns one NetworkOutput per source, each tensor shaped exactly
        like the input. With a `pool` (a ThreadPoolExecutor) the row
        tiles of every 3x3 conv run on this thread and the pool's idle
        threads; the output is the same bits as without.
        """
        cfg = self.config
        mag = np.asarray(mag, dtype=np.float32)
        if mag.ndim != 3 or mag.shape[0] != cfg.in_channels or mag.shape[2] == 0:
            raise ValueError(
                f"expected input [{cfg.in_channels}, T, F > 0], got shape {mag.shape}"
            )
        _, t0, f0 = mag.shape
        mult = 2**cfg.num_levels
        pad_t = (-t0) % mult
        pad_f = (-f0) % mult
        h = np.pad(mag, ((0, 0), (0, pad_t), (0, pad_f)))

        skips = []
        for lvl in range(cfg.num_levels):
            for b in range(cfg.blocks_per_level[lvl]):
                h = self._block(h, f"enc{lvl}.block{b}", pool)
            skips.append(h)
            h = _avgpool2(h)
        for lvl in reversed(range(cfg.num_levels)):
            h = _conv3x3([_Up2(h)], [self._link(f"dec{lvl}.upsample", True)], pool)
            h = self._block(h, f"dec{lvl}.block0", pool, skips.pop())
            for b in range(1, cfg.blocks_per_level[lvl]):
                h = self._block(h, f"dec{lvl}.block{b}", pool)
        out = np.empty((HEADS_PER_SOURCE * cfg.out_sources * cfg.in_channels, t0, f0), np.float32)
        _conv3x3([h], [self._link("head", False)], pool, out=out)

        per_source = np.split(out, cfg.out_sources, axis=0)
        results = []
        for chunk in per_source:
            m, pr, pi, q = np.split(chunk, HEADS_PER_SOURCE, axis=0)
            results.append(
                NetworkOutput(mask_logits=m, phase_real=pr, phase_imag=pi, mag_residual=q)
            )
        return results

    def _link(self, prefix, leaky):
        return self.params[f"{prefix}.weight"], self.params.get(f"{prefix}.bias"), leaky

    def _block(self, x, prefix, pool=None, skip=None):
        """Residual block over x [C,H,W], or over [x, skip] read as one input if `skip` is given."""
        w = self.params.get(f"{prefix}.shortcut.weight")
        links = [self._link(f"{prefix}.conv1", True), self._link(f"{prefix}.conv2", False)]
        parts = [x] if skip is None else [x, skip]
        return _conv3x3(parts, links, pool, x if w is None else None, w)


# Bytes of one row tile's staged GEMM operand (see the module docstring)
TILE_BYTES = 2 << 20


def _threads(pool):
    """Most jobs per conv: 1, or the thread count a ThreadPoolExecutor keeps in `_max_workers`."""
    return 1 if pool is None else pool._max_workers


def _tiles(hgt, wid, c, depth=1):
    """(first row, end row) of each row tile of a chain of `depth` 3x3 convs.

    `c` is the most input channels of a conv in the chain. The fewest
    near-equal tiles (one if hgt is 0) whose staged operand fits
    TILE_BYTES (one row at least): a tile of r rows stages at most
    r + 2 * depth input rows of a conv, as a [3 * c, (r + 2 * depth) * wid]
    float32 operand.
    """
    fit = max(TILE_BYTES // (12 * c * wid) - 2 * depth, 1)
    n = max(-(-hgt // fit), 1)
    return [(i * hgt // n, (i + 1) * hgt // n) for i in range(n)]


def _fan_out(pool, count, job):
    """Run job() here and on up to count - 1 idle `pool` threads; return when all are done.

    Every job takes work until none is left, so a job that no pool
    thread has started by the time this thread's job returns has
    nothing to do: it is cancelled, and this thread never waits on a
    queued job, so calls from the pool's own threads cannot deadlock.
    A cancelled job stays in the pool's queue until a pool thread takes
    it off; the queue reaches `job` only through `held`, emptied on
    return, so it keeps none of the conv's arrays alive while every
    pool thread is busy.
    """
    held = [job]
    futures = [pool.submit(_run_held, held) for _ in range(1, count)]
    job()
    for future in futures:
        if not future.cancel():
            future.result()
    held.clear()


def _run_held(held):
    held[0]()


def _leaky(x, scratch):
    """Leaky ReLU in place: max(x, slope * x) for 0 < slope < 1.

    The product goes to the flat float32 `scratch` (at least x.size
    elements).
    """
    tmp = scratch[: x.size].reshape(x.shape)
    return np.maximum(x, np.multiply(x, LEAKY_SLOPE, out=tmp), out=x)


class _Up2:
    """The nearest 2x upsample of `low` [C,H,W], a [C,2H,2W] conv input that is never built."""

    def __init__(self, low):
        self.low = low
        c, hgt, wid = low.shape
        self.shape = (c, 2 * hgt, 2 * wid)

    def stage(self, top, bot, taps):
        """Stage rows top..bot-1 into taps [C, 3, bot - top, 2W] as `_stage` does, edges aside.

        Output column s reads low column s // 2, so tap 0 reads
        (s - 1) // 2 and tap 2 reads (s + 1) // 2.
        """
        # rows first, first + 2, ... read low rows first // 2, first // 2 + 1, ...
        for first in (top, top + 1):
            dst = taps[:, :, first - top :: 2]
            src = self.low[:, None, first // 2 : first // 2 + dst.shape[2]]
            dst[:, 1:, :, 0::2] = src
            dst[:, :2, :, 1::2] = src
            dst[:, 0, :, 2::2] = src[:, 0, :, :-1]
            dst[:, 2, :, 1:-1:2] = src[:, 0, :, 1:]


def _stage(parts, lo, hi, taps):
    """Copy rows lo..hi-1 of a conv input into taps [3*C, (hi-lo)*W] as three column shifts.

    The input is `parts`, [C_i,H,W] arrays or `_Up2`s whose channels
    follow each other. Tap j at column s reads input column s + j - 1.
    Rows outside the input and the edge column a shift moves past are
    zero. Every tap is copied from the part itself: numpy would copy a
    shift from one tap to another through a temporary, since the taps
    of a buffer interleave.
    """
    _, hgt, wid = parts[0].shape
    buf = taps.reshape(-1, 3, hi - lo, wid)
    top, bot = max(lo, 0), min(hi, hgt)
    buf[:, :, : top - lo] = 0
    buf[:, :, bot - lo :] = 0
    inner = buf[:, :, top - lo : bot - lo]
    inner[:, 0, :, 0] = 0
    inner[:, 2, :, -1] = 0
    c0 = 0
    for part in parts:
        dst = inner[c0 : c0 + part.shape[0]]
        c0 += part.shape[0]
        if isinstance(part, _Up2):
            part.stage(top, bot, dst)
            continue
        src = part[:, top:bot]
        dst[:, 0, :, 1:] = src[:, :, :-1]
        dst[:, 1] = src
        dst[:, 2, :, :-1] = src[:, :, 1:]


def _conv3x3(parts, links, pool=None, residual=None, shortcut=None, out=None):
    """A chain of 3x3 convs over the channel parts of one input [C,H,W] (see `_stage`).

    Each conv is zero-padded to 'same'. `links` lists each conv as
    (w [O,C,3,3], bias [O] or None, leaky): the conv adds its bias and,
    if `leaky`, goes through the leaky ReLU. Returns the last conv's
    output plus `residual` [O,H,W] if given, plus the 1x1 conv
    `shortcut` [O,C,1,1] (no bias) of the input if given, in a fresh
    float32 [O,H,W] or in `out`: an [O,H',W'] array with H' <= H and
    W' <= W, which takes the top-left crop (then with neither residual
    nor shortcut).

    The chain runs over row tiles (see `_tiles`), each tile through
    every conv before the next tile. A conv that feeds d later convs
    computes its tile's rows and d halo rows on each side into one
    tile-sized buffer, rows outside the input zero, and the next conv
    stages from that buffer. A conv of r output rows stages its r + 2
    input rows as [3*C, (r+2)*W]; one GEMM, w as [3*O, 3*C] (kernel
    row, then output channel) by that operand, gives z [3, O, r + 2, W],
    and the output rows are z[0, :, 0:r] + z[1, :, 1:r+1] + z[2, :, 2:r+2].
    Bias, leaky ReLU (z as scratch) and residual follow before the next
    conv is staged. The shortcut is one GEMM per tile on the tile's
    rows of the first conv's centre tap, a strided view of its staged
    operand, added last. With a `pool`, `min(threads, tiles)` jobs (see
    `_fan_out`) each take the next tile no job has taken until none is
    left. Each job allocates one operand, one GEMM output and, for a
    chain, one fed buffer, sized for the widest tile, and for a
    shortcut one [O, rows, W] buffer of the widest tile's rows.
    """
    _, hgt, wid = parts[0].shape
    y = np.empty((len(links[-1][0]), hgt, wid), dtype=np.float32) if out is None else out
    # [kernel row, O] x [C, kernel column]
    w_rows = [w.transpose(2, 0, 1, 3).reshape(3 * len(w), -1) for w, _, _ in links]
    depth = len(links)
    tiles = _tiles(hgt, wid, max(w.shape[1] for w, _, _ in links), depth)
    most_rows = max(t1 - t0 for t0, t1 in tiles)
    widest = (most_rows + 2 * depth) * wid
    deal = itertools.count()

    def job():
        staged = np.empty(max(w.shape[1] for w in w_rows) * widest, dtype=np.float32)
        product = np.empty(max(len(w) for w in w_rows) * widest, dtype=np.float32)
        fed_channels = max([len(w) // 3 for w in w_rows[:-1]], default=0)
        fed = np.empty(fed_channels * widest, dtype=np.float32)
        if shortcut is not None:
            added = np.empty(len(y) * most_rows * wid, dtype=np.float32)
        for i in deal:
            if i >= len(tiles):
                return
            t0, t1 = tiles[i]
            src, lo = parts, t0 - depth
            for w, (_, b, leaky), halo in zip(w_rows, links, range(depth - 1, -1, -1)):
                o, rows = len(w) // 3, t1 - t0 + 2 * halo
                n = (rows + 2) * wid
                taps = staged[: w.shape[1] * n].reshape(-1, n)
                _stage(src, lo, lo + rows + 2, taps)
                if shortcut is not None and halo == depth - 1:
                    # the tile's rows sit `depth` rows into the first conv's staged rows
                    centre = taps.reshape(-1, 3, rows + 2, wid)[:, 1, depth : depth + t1 - t0]
                    sc = np.matmul(
                        shortcut[:, :, 0, 0],
                        centre.reshape(len(centre), -1),
                        out=added[: len(y) * (t1 - t0) * wid].reshape(len(y), -1),
                    )
                z = np.matmul(w, taps, out=product[: 3 * o * n].reshape(3 * o, n))
                z = z.reshape(3, o, rows + 2, wid)
                out = fed[: o * rows * wid].reshape(o, rows, wid) if halo else y[:, t0:t1]
                # output row r takes kernel row i from staged row r + i; a crop keeps
                # the first rows and columns
                r, cols = out.shape[1:]
                np.add(z[0, :, :r, :cols], z[1, :, 1 : r + 1, :cols], out=out)
                out += z[2, :, 2 : r + 2, :cols]
                if b is not None:
                    out += b[:, None, None]
                if leaky:
                    _leaky(out, product)
                if halo:  # rows outside the input are the next conv's zero padding
                    out[:, : max(halo - t0, 0)] = 0
                    out[:, rows - max(t1 + halo - hgt, 0) :] = 0
                    src, lo = [out], 0
            if residual is not None:
                out += residual[:, t0:t1]
            if shortcut is not None:
                out += sc.reshape(out.shape)

    _fan_out(pool, min(_threads(pool), len(tiles)), job)
    return y


def _avgpool2(x):
    """2x2 mean: the same bits as x's [C, H/2, 2, W/2, 2] view .mean(axis=(2, 4)) if W > 2.

    numpy 2.4.6 sums each window in this order; at W = 2 mean sums the
    four contiguous values left to right instead.
    """
    c, hgt, wid = x.shape
    v = x.reshape(c, hgt // 2, 2, wid // 2, 2)
    y = (v[:, :, 0, :, 0] + v[:, :, 0, :, 1]) + (v[:, :, 1, :, 0] + v[:, :, 1, :, 1])
    y *= np.float32(0.25)
    return y


def build(config: ModelConfig) -> Model:
    """Zero-initialized model with the canonical parameter table."""
    params = {name: np.zeros(shape, dtype=np.float32) for name, shape in _param_shapes(config)}
    return Model(config, params)


def init_random(model: Model, seed: int) -> Model:
    """He-normal weights, zero biases; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, value in model.params.items():
        if name.endswith(".weight"):
            fan_in = int(np.prod(value.shape[1:]))
            params[name] = (rng.standard_normal(value.shape) * np.sqrt(2.0 / fan_in)).astype(
                np.float32
            )
        else:
            params[name] = np.zeros_like(value)
    return Model(model.config, params)


@dataclass(eq=False)
class WeightStore:
    config_hash: str
    tensors: dict  # name -> float32 ndarray, insertion-ordered
    config: dict  # ModelConfig fields


def save_weights(model: Model) -> WeightStore:
    return WeightStore(
        config_hash=model.config.config_hash(),
        tensors={k: np.asarray(v, dtype=np.float32) for k, v in model.params.items()},
        config=asdict(model.config),
    )


def write_store(store: WeightStore, path) -> None:
    """CWSW container: magic, u32 version, u64 header length, JSON header,
    then raw little-endian f32 tensor data in header order, each tensor
    written from its own buffer (copied only if not contiguous <f4)."""
    entries = []
    offset = 0
    for name, tensor in store.tensors.items():
        entries.append(
            {"name": name, "shape": list(tensor.shape), "dtype": "f32", "offset": offset}
        )
        offset += 4 * tensor.size
    header = {
        "config_hash": store.config_hash,
        "config": store.config,
        "tensors": entries,
    }
    header_bytes = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(STORE_MAGIC)
        f.write(struct.pack("<I", STORE_VERSION))
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for tensor in store.tensors.values():
            f.write(np.ascontiguousarray(tensor, dtype="<f4"))


def read_store(path) -> WeightStore:
    """Read a CWSW container (see `write_store`), each tensor straight into its own array.

    The header is read and checked first; then each entry is checked,
    its extent against the file's size, and its data read with
    `readinto` into a fresh float32 array: aligned, writable and
    native-endian (a view of one bytes object can be unaligned, and
    numpy's matmul then bypasses BLAS). The file is never held whole,
    so a load peaks at about the tensors' bytes.
    """
    with open(path, "rb") as f:
        lead = f.read(16)
        if lead[:4] != STORE_MAGIC:
            raise WeightStoreError(f"{path}: bad magic, not a CWSW weight store")
        if len(lead) < 16:
            raise WeightStoreError(f"{path}: truncated header")
        (version,) = struct.unpack_from("<I", lead, 4)
        if version != STORE_VERSION:
            raise WeightStoreError(f"{path}: unsupported store version {version}")
        (header_len,) = struct.unpack_from("<Q", lead, 8)
        size = os.fstat(f.fileno()).st_size
        data_start = 16 + header_len
        if data_start > size:
            raise WeightStoreError(f"{path}: truncated header")
        try:
            header = json.loads(f.read(header_len).decode())
        except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
            raise WeightStoreError(f"{path}: header is not UTF-8 JSON: {e}") from None
        if not isinstance(header, dict):
            raise WeightStoreError(f"{path}: header is a {type(header).__name__}, not an object")
        for key in ("config_hash", "config", "tensors"):
            if key not in header:
                raise WeightStoreError(f"{path}: header has no {key!r}")
        config, entries = header["config"], header["tensors"]
        if not isinstance(config, dict):
            raise WeightStoreError(f"{path}: header's 'config' is not an object")
        if not isinstance(entries, list):
            raise WeightStoreError(f"{path}: header's 'tensors' is not a list")
        tensors = {}
        for i, entry in enumerate(entries):
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
                raise WeightStoreError(
                    f"{path}: tensor entry {i} is not an object with a string 'name'"
                )
            name, shape = entry["name"], entry.get("shape")
            if name in tensors:
                raise WeightStoreError(f"{path}: tensor {name!r} is listed more than once")
            if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
                raise WeightStoreError(
                    f"{path}: tensor {name!r} has shape {shape!r}, expected a list of integers >= 0"
                )
            dtype, offset = entry.get("dtype"), entry.get("offset")
            if dtype != "f32" or type(offset) is not int or offset < 0:
                raise WeightStoreError(
                    f"{path}: tensor {name!r} has dtype {dtype!r} and offset {offset!r}, "
                    "expected 'f32' and an integer >= 0"
                )
            count = math.prod(shape)
            start = data_start + offset
            if start + 4 * count > size:
                raise WeightStoreError(f"{path}: truncated data for tensor {name!r}")
            tensor = np.empty(count, "<f4")
            f.seek(start)
            f.readinto(tensor)
            # copied only where float32 is not little-endian
            tensors[name] = tensor.astype(np.float32, copy=False).reshape(shape)
    return WeightStore(
        config_hash=header["config_hash"],
        tensors=tensors,
        config=config,
    )


def model_from_store(store: WeightStore) -> Model:
    """Model of the store's config and tensors, checked against its parameter table.

    The config hash, every parameter name and every shape must match.
    float32 tensors are taken as they are, not copied.
    """
    # headers written before the layer count was derived also record it
    config = ModelConfig(**{k: v for k, v in store.config.items() if k != "target_layer_count"})
    expected_hash = config.config_hash()
    if store.config_hash != expected_hash:
        raise WeightStoreError(
            f"config hash mismatch: store {store.config_hash}, model {expected_hash}"
        )
    shapes = dict(_param_shapes(config))
    missing = [k for k in shapes if k not in store.tensors]
    extra = [k for k in store.tensors if k not in shapes]
    bad_shape = [k for k in shapes if k in store.tensors and store.tensors[k].shape != shapes[k]]
    if missing or extra or bad_shape:
        parts = []
        if missing:
            parts.append(f"missing: {sorted(missing)}")
        if extra:
            parts.append(f"unexpected: {sorted(extra)}")
        if bad_shape:
            parts.append(f"shape mismatch: {sorted(bad_shape)}")
        raise WeightStoreError("weight store does not match model; " + "; ".join(parts))
    return Model(config, {k: np.asarray(store.tensors[k], dtype=np.float32) for k in shapes})
