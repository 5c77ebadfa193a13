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

Convolutions are GEMMs. A 1x1 conv multiplies [O, C] weights by the
input viewed as [C, H*W]. A 3x3 conv is "row-tap": it copies only the
three column shifts of its input into a channel-first buffer
[C, 3, H+2, W] with zero pad rows top and bottom and zero edge columns,
multiplies all three kernel rows at once, [3*O, 3*C] @ [3*C, (H+2)*W]
(in blocks of C output channels when O > C), and sums the three
row-shifted [O, H, W] slices of the [3, O, H+2, W] product. Each
`forward` call allocates one column buffer of 3*C*(H+2)*W elements for
its widest 3x3 layer and reuses it for every layer (and as leaky-ReLU
scratch); the buffer lives only in that call, so threads may share one
Model. Bias, leaky-ReLU and the residual add work in place on each
conv's fresh output.

Inference only; parameters live in a flat name -> float32 array table
serialized via the CWSW container format.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .cirm import NetworkOutput

LEAKY_SLOPE = 0.01
HEADS_PER_SOURCE = 4

STORE_MAGIC = b"CWSW"
STORE_VERSION = 1


class ModelError(Exception):
    pass


class WeightStoreError(ModelError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 8
    out_sources: int = 1
    blocks_per_level: tuple = (1, 1)
    channels_per_level: tuple = (4, 8)
    target_layer_count: int | None = None

    def __post_init__(self):
        if len(self.blocks_per_level) != len(self.channels_per_level):
            raise ValueError(
                "blocks_per_level and channels_per_level must have equal length "
                f"({len(self.blocks_per_level)} vs {len(self.channels_per_level)})"
            )
        if len(self.blocks_per_level) == 0:
            raise ValueError("at least one level required")
        if any(b < 1 for b in self.blocks_per_level):
            raise ValueError("every level needs at least one block")
        if self.out_sources < 1:
            raise ValueError("out_sources must be >= 1")
        object.__setattr__(self, "blocks_per_level", tuple(self.blocks_per_level))
        object.__setattr__(self, "channels_per_level", tuple(self.channels_per_level))

    @property
    def num_levels(self) -> int:
        return len(self.blocks_per_level)

    def config_hash(self) -> str:
        """Hash of the architecture; the layer-count target does not change it."""
        doc = self.to_dict()
        del doc["target_layer_count"]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "in_channels": self.in_channels,
            "out_sources": self.out_sources,
            "blocks_per_level": list(self.blocks_per_level),
            "channels_per_level": list(self.channels_per_level),
            "target_layer_count": self.target_layer_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            in_channels=d["in_channels"],
            out_sources=d["out_sources"],
            blocks_per_level=tuple(d["blocks_per_level"]),
            channels_per_level=tuple(d["channels_per_level"]),
            target_layer_count=d.get("target_layer_count"),
        )


PRESETS = {
    # 5 levels x 13 blocks: 4*65 + 3*5 + 1 = 276 convs
    "vocals-276": ModelConfig(
        in_channels=8,
        out_sources=1,
        blocks_per_level=(13,) * 5,
        channels_per_level=(16, 32, 48, 64, 80),
        target_layer_count=276,
    ),
    # 3 levels x 13 blocks: 4*39 + 3*3 + 1 = 166 convs
    "other-166": ModelConfig(
        in_channels=8,
        out_sources=4,
        blocks_per_level=(13,) * 3,
        channels_per_level=(16, 32, 48),
        target_layer_count=166,
    ),
    "tiny": ModelConfig(
        in_channels=8,
        out_sources=1,
        blocks_per_level=(1, 1),
        channels_per_level=(4, 8),
    ),
}


def _conv_shapes(config: ModelConfig):
    """Yield (name, shape, has_bias) for every parameter, in canonical order."""
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
        yield f"dec{lvl}.upsample.weight", (ch, prev, 3, 3), True
        for b in range(config.blocks_per_level[lvl]):
            bin_ = 2 * ch if b == 0 else ch
            yield from _block_shapes(f"dec{lvl}.block{b}", bin_, ch)
        prev = ch
    out_ch = HEADS_PER_SOURCE * config.out_sources * config.in_channels
    yield "head.weight", (out_ch, prev, 3, 3), False


def _block_shapes(prefix: str, cin: int, cout: int):
    yield f"{prefix}.conv1.weight", (cout, cin, 3, 3), True
    yield f"{prefix}.conv2.weight", (cout, cout, 3, 3), True
    if cin != cout:
        yield f"{prefix}.shortcut.weight", (cout, cin, 1, 1), False


def count_layers(config: ModelConfig) -> int:
    """Number of convolutions under the documented counting rule."""
    return sum(1 for name, _, _ in _conv_shapes(config) if name.endswith(".weight"))


class Model:
    """Parameter table plus the forward pass. Immutable by convention."""

    def __init__(self, config: ModelConfig, params: dict):
        self.config = config
        self.params = params

    @property
    def out_sources(self) -> int:
        return self.config.out_sources

    def forward(self, mag: np.ndarray):
        """Map a magnitude tensor [in_channels, T, F] to NetworkOutputs.

        Returns one NetworkOutput per source, each tensor shaped exactly
        like the input.
        """
        cfg = self.config
        mag = np.asarray(mag, dtype=np.float32)
        if mag.ndim != 3 or mag.shape[0] != cfg.in_channels:
            raise ValueError(
                f"expected input [{cfg.in_channels}, T, F], got shape {mag.shape}"
            )
        _, t0, f0 = mag.shape
        mult = 2**cfg.num_levels
        pad_t = (-t0) % mult
        pad_f = (-f0) % mult
        h = np.pad(mag, ((0, 0), (0, pad_t), (0, pad_f)))
        # one column buffer per call, not per model: threads share a model
        cols = np.empty(_cols_size(cfg, h.shape[1], h.shape[2]), dtype=np.float32)

        skips = []
        for lvl in range(cfg.num_levels):
            for b in range(cfg.blocks_per_level[lvl]):
                h = self._block(h, f"enc{lvl}.block{b}", cols)
            skips.append(h)
            h = _avgpool2(h)
        for lvl in reversed(range(cfg.num_levels)):
            h = _upsample2(h)
            h = _leaky(self._conv(h, f"dec{lvl}.upsample", cols), cols)
            h = np.concatenate([h, skips[lvl]], axis=0)
            for b in range(cfg.blocks_per_level[lvl]):
                h = self._block(h, f"dec{lvl}.block{b}", cols)
        out = self._conv(h, "head", cols)[:, :t0, :f0]

        per_source = np.split(out, cfg.out_sources, axis=0)
        results = []
        for chunk in per_source:
            m, pr, pi, q = np.split(chunk, HEADS_PER_SOURCE, axis=0)
            results.append(
                NetworkOutput(mask_logits=m, phase_real=pr, phase_imag=pi, mag_residual=q)
            )
        return results

    def _conv(self, x, prefix, cols):
        w = self.params[f"{prefix}.weight"]
        b = self.params.get(f"{prefix}.bias")
        return _conv2d(x, w, b, cols)

    def _block(self, x, prefix, cols):
        y = _leaky(self._conv(x, f"{prefix}.conv1", cols), cols)
        y = self._conv(y, f"{prefix}.conv2", cols)
        shortcut = f"{prefix}.shortcut"
        y += self._conv(x, shortcut, cols) if f"{shortcut}.weight" in self.params else x
        return y


def _cols_size(config, hgt, wid):
    """Elements of the largest 3x3 column buffer [C, 3, H+2, W] in one forward pass.

    At level l (H and W halved l times) the 3x3 convs read the previous
    level's channels (enc block 0), 2x this level's (dec block 0, skip
    concatenated) and the next level's (upsample conv).
    """
    chans = (config.in_channels,) + config.channels_per_level + (0,)
    return max(
        3 * max(chans[lvl], 2 * chans[lvl + 1], chans[lvl + 2]) * ((hgt >> lvl) + 2) * (wid >> lvl)
        for lvl in range(config.num_levels)
    )


def _leaky(x, scratch):
    """Leaky ReLU in place: max(x, slope * x) for 0 < slope < 1.

    The product goes to the flat float32 `scratch` (at least x.size
    elements).
    """
    tmp = scratch[: x.size].reshape(x.shape)
    return np.maximum(x, np.multiply(x, LEAKY_SLOPE, out=tmp), out=x)


def _conv2d(x, w, b, cols):
    """x [C,H,W], w [O,C,kh,kw] with kh=kw in {1,3}, zero padding to 'same'.

    Returns a fresh float32 [O,H,W]. A 1x1 conv is one GEMM on x viewed
    as [C, H*W]. A 3x3 conv copies the three column shifts of x into a
    buffer [C,3,H+2,W], tap j holding rows of x shifted by j - 1 columns
    between zero pad rows and a zero edge column (no padded copy of x).
    One GEMM, w as [3*O, C*3] (kernel row, then output channel) by the
    buffer as [C*3, (H+2)*W], gives z [3,O,H+2,W], and the output is
    z[0,:,0:H] + z[1,:,1:H+1] + z[2,:,2:H+2]. When O > C the GEMM runs
    over blocks of C output channels, each into the conv's one z buffer,
    so z never outgrows the column buffer. `cols` is flat float32
    scratch of at least 3*C*(H+2)*W elements, reused across the layers
    of one forward call; a 1x1 conv does not touch it.
    """
    o, c, kh, kw = w.shape
    _, hgt, wid = x.shape
    if kh == 1:
        y = w.reshape(o, c) @ x.reshape(c, hgt * wid)
    else:
        buf = cols[: c * 3 * (hgt + 2) * wid].reshape(c, 3, hgt + 2, wid)
        buf[:, :, 0] = 0
        buf[:, :, -1] = 0
        # tap j at column s reads input column s + j - 1
        buf[:, 0, 1:-1, 0] = 0
        buf[:, 0, 1:-1, 1:] = x[:, :, :-1]
        buf[:, 1, 1:-1] = x
        buf[:, 2, 1:-1, -1] = 0
        buf[:, 2, 1:-1, :-1] = x[:, :, 1:]
        taps = buf.reshape(3 * c, -1)
        w_rows = w.transpose(2, 0, 1, 3)  # [kernel row, O, C, kernel column]
        y = np.empty((o, hgt, wid), dtype=np.float32)
        # blocks of at most c output channels keep z no larger than buf
        zbuf = np.empty((3 * min(o, c), taps.shape[1]), dtype=np.float32)
        for o0 in range(0, o, c):
            blk = y[o0 : o0 + c]
            z = zbuf[: 3 * len(blk)]
            np.matmul(w_rows[:, o0 : o0 + c].reshape(len(z), 3 * c), taps, out=z)
            z = z.reshape(3, len(blk), hgt + 2, wid)
            # output row r takes kernel row i from padded row r + i
            np.add(z[0, :, :hgt], z[1, :, 1 : hgt + 1], out=blk)
            blk += z[2, :, 2:]
    y = y.reshape(o, hgt, wid)
    if b is not None:
        y += b[:, None, None]
    return y


def _avgpool2(x):
    c, hgt, wid = x.shape
    return x.reshape(c, hgt // 2, 2, wid // 2, 2).mean(axis=(2, 4))


def _upsample2(x):
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def build(config: ModelConfig) -> Model:
    """Zero-initialized model with the canonical parameter table.

    Raises if the config declares a target layer count the architecture
    does not hit.
    """
    n = count_layers(config)
    if config.target_layer_count is not None and n != config.target_layer_count:
        raise ModelError(
            f"config targets {config.target_layer_count} conv layers but builds {n}"
        )
    params = {}
    for name, shape, has_bias in _conv_shapes(config):
        params[name] = np.zeros(shape, dtype=np.float32)
        if has_bias:
            params[name[: -len(".weight")] + ".bias"] = np.zeros(shape[0], dtype=np.float32)
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


@dataclass
class WeightStore:
    config_hash: str
    tensors: dict  # name -> float32 ndarray, insertion-ordered
    config: dict | None = None
    metadata: dict = field(default_factory=dict)


def save_weights(model: Model) -> WeightStore:
    return WeightStore(
        config_hash=model.config.config_hash(),
        tensors={k: v.astype(np.float32) for k, v in model.params.items()},
        config=model.config.to_dict(),
        metadata={"source_count": model.config.out_sources},
    )


def load_weights(model: Model, store: WeightStore) -> Model:
    """New Model with the store's tensors; strict name/shape/hash checking."""
    expected_hash = model.config.config_hash()
    if store.config_hash != expected_hash:
        raise WeightStoreError(
            f"config hash mismatch: store {store.config_hash}, model {expected_hash}"
        )
    missing = [k for k in model.params if k not in store.tensors]
    extra = [k for k in store.tensors if k not in model.params]
    bad_shape = [
        k
        for k in model.params
        if k in store.tensors and store.tensors[k].shape != model.params[k].shape
    ]
    if missing or extra or bad_shape:
        parts = []
        if missing:
            parts.append(f"missing: {sorted(missing)}")
        if extra:
            parts.append(f"unexpected: {sorted(extra)}")
        if bad_shape:
            parts.append(f"shape mismatch: {sorted(bad_shape)}")
        raise WeightStoreError("weight store does not match model; " + "; ".join(parts))
    params = {k: store.tensors[k].astype(np.float32) for k in model.params}
    return Model(model.config, params)


def write_store(store: WeightStore, path) -> None:
    """CWSW container: magic, u32 version, u64 header length, JSON header,
    then raw little-endian f32 tensor data in header order."""
    entries = []
    offset = 0
    blobs = []
    for name, tensor in store.tensors.items():
        data = np.ascontiguousarray(tensor, dtype="<f4").tobytes()
        entries.append(
            {"name": name, "shape": list(tensor.shape), "dtype": "f32", "offset": offset}
        )
        blobs.append(data)
        offset += len(data)
    header = {
        "config_hash": store.config_hash,
        "config": store.config,
        "metadata": store.metadata,
        "tensors": entries,
    }
    header_bytes = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(STORE_MAGIC)
        f.write(struct.pack("<I", STORE_VERSION))
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for blob in blobs:
            f.write(blob)


def read_store(path) -> WeightStore:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != STORE_MAGIC:
        raise WeightStoreError(f"{path}: bad magic, not a CWSW weight store")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != STORE_VERSION:
        raise WeightStoreError(f"{path}: unsupported store version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header_start = 16
    data_start = header_start + header_len
    if data_start > len(raw):
        raise WeightStoreError(f"{path}: truncated header")
    header = json.loads(raw[header_start:data_start].decode())
    tensors = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        name, dtype, offset = entry["name"], entry.get("dtype"), entry.get("offset")
        if dtype != "f32" or type(offset) is not int or offset < 0:
            raise WeightStoreError(
                f"{path}: tensor {name!r} has dtype {dtype!r} and offset {offset!r}, "
                "expected 'f32' and an integer >= 0"
            )
        start = data_start + offset
        end = start + 4 * int(np.prod(shape))
        if end > len(raw):
            raise WeightStoreError(f"{path}: truncated data for tensor {name!r}")
        tensors[name] = np.frombuffer(raw[start:end], dtype="<f4").reshape(shape)
    return WeightStore(
        config_hash=header["config_hash"],
        tensors=tensors,
        config=header.get("config"),
        metadata=header.get("metadata", {}),
    )


def model_from_store(store: WeightStore) -> Model:
    """Rebuild a model from a store that embeds its config."""
    if store.config is None:
        raise WeightStoreError("weight store carries no model config")
    config = ModelConfig.from_dict(store.config)
    return load_weights(build(config), store)
