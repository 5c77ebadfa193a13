import json
import struct
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cwsep.resunet import (
    PRESETS,
    Model,
    ModelConfig,
    WeightStore,
    WeightStoreError,
    build,
    count_layers,
    init_random,
    model_from_store,
    read_store,
    save_weights,
    write_store,
)
from cwsep import resunet
from cwsep.resunet import _conv3x3, _Up2

TINY = PRESETS["tiny"]
# one or two blocks per level at the preset widths: 3 and 5 levels
OTHER_WIDTHS = ModelConfig(out_sources=4, blocks_per_level=(2,) * 3,
                           channels_per_level=(16, 32, 48))
VOCALS_WIDTHS = ModelConfig(blocks_per_level=(1,) * 5, channels_per_level=(16, 32, 48, 64, 80))
FIELDS = ("mask_logits", "phase_real", "phase_imag", "mag_residual")


def random_input(t=32, f=257, channels=8, seed=0):
    rng = np.random.default_rng(seed)
    return np.abs(rng.standard_normal((channels, t, f))).astype(np.float32)


def damped_model(config, seed):
    """init_random weights with every conv2 weight x0.1, which keeps a deep net finite."""
    model = init_random(build(config), seed=seed)
    for name, value in model.params.items():
        if name.endswith("conv2.weight"):
            value *= np.float32(0.1)
    return model


def layer_shortcut(x, w):
    """1x1 conv without bias: x [C,H,W], w [O,C,1,1] -> [O,H,W], one GEMM over the layer."""
    c, hgt, wid = x.shape
    return np.matmul(w[:, :, 0, 0], x.reshape(c, hgt * wid)).reshape(len(w), hgt, wid)


def reference_forward(model, mag, pool=None):
    """Model.forward composed of whole layers, as [every source's four tensors, T, F].

    The upsample is np.repeat, a skip joins by np.concatenate, each
    shortcut is one GEMM over the layer, and the head runs over the
    padded layer and is cropped afterwards.
    """
    cfg, params = model.config, model.params

    def link(prefix, leaky):
        return params[f"{prefix}.weight"], params.get(f"{prefix}.bias"), leaky

    def block(x, prefix):
        w = params.get(f"{prefix}.shortcut.weight")
        links = [link(f"{prefix}.conv1", True), link(f"{prefix}.conv2", False)]
        return _conv3x3([x], links, pool, x if w is None else layer_shortcut(x, w))

    _, t0, f0 = mag.shape
    mult = 2**cfg.num_levels
    h = np.pad(mag, ((0, 0), (0, -t0 % mult), (0, -f0 % mult)))
    skips = []
    for lvl in range(cfg.num_levels):
        for b in range(cfg.blocks_per_level[lvl]):
            h = block(h, f"enc{lvl}.block{b}")
        skips.append(h)
        h = resunet._avgpool2(h)
    for lvl in reversed(range(cfg.num_levels)):
        h = np.repeat(np.repeat(h, 2, axis=1), 2, axis=2)
        h = _conv3x3([h], [link(f"dec{lvl}.upsample", True)], pool)
        h = np.concatenate([h, skips[lvl]])
        for b in range(cfg.blocks_per_level[lvl]):
            h = block(h, f"dec{lvl}.block{b}")
    return _conv3x3([h], [link("head", False)], pool)[:, :t0, :f0]


def stacked(outputs):
    """Model.forward's NetworkOutputs as one array in the head's channel order."""
    return np.concatenate([getattr(out, name) for out in outputs for name in FIELDS])


class TestBuild:
    def test_tiny_builds_and_runs(self):
        model = build(TINY)
        outs = model.forward(random_input())
        assert len(outs) == 1

    def test_vocals_preset_layer_count(self):
        assert count_layers(PRESETS["vocals-276"]) == 276
        build(PRESETS["vocals-276"])

    def test_other_preset_layer_count(self):
        assert count_layers(PRESETS["other-166"]) == 166
        build(PRESETS["other-166"])

    def test_inconsistent_level_lists(self):
        with pytest.raises(ValueError):
            ModelConfig(blocks_per_level=(1, 1), channels_per_level=(4,))

    def test_zero_block_level_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(blocks_per_level=(0,), channels_per_level=(4,))

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="at least one level required"):
            ModelConfig(blocks_per_level=(), channels_per_level=())

    # test_cli's test_malformed_store_named covers non-integer and non-sequence levels
    @pytest.mark.parametrize("key, value", [
        ("in_channels", 8.0),
        ("out_sources", True),
        ("out_sources", 0),
        ("channels_per_level", (4, True)),
    ])
    def test_sizes_must_be_integers_of_at_least_one(self, key, value):
        with pytest.raises(ValueError, match=key):
            ModelConfig(**{**vars(TINY), key: value})


class TestForward:
    def test_zero_weights_zero_output(self):
        model = build(TINY)
        outs = model.forward(random_input())
        for out in outs:
            assert out.mask_logits.shape == (8, 32, 257)
            assert not out.mask_logits.any()
            assert not out.phase_real.any()
            assert not out.phase_imag.any()
            assert not out.mag_residual.any()

    def test_random_weights_finite(self):
        model = init_random(build(TINY), seed=42)
        outs = model.forward(random_input())
        for out in outs:
            for t in (out.mask_logits, out.phase_real, out.phase_imag, out.mag_residual):
                assert t.shape == (8, 32, 257)
                assert np.all(np.isfinite(t))

    @pytest.mark.parametrize("t", [16, 17, 50, 127, 400])
    def test_output_shape_matches_input(self, t):
        model = init_random(build(TINY), seed=1)
        out = model.forward(random_input(t=t, f=257, seed=t))[0]
        assert out.mask_logits.shape == (8, t, 257)

    def test_multi_source_output(self):
        cfg = ModelConfig(out_sources=4, blocks_per_level=(1, 1),
                          channels_per_level=(4, 8))
        model = init_random(build(cfg), seed=2)
        outs = model.forward(random_input())
        assert len(outs) == 4

    def test_deterministic(self):
        model = init_random(build(TINY), seed=3)
        x = random_input(seed=5)
        a = model.forward(x)[0]
        b = model.forward(x)[0]
        assert np.array_equal(a.mask_logits, b.mask_logits)
        assert np.array_equal(a.mag_residual, b.mag_residual)

    def test_threads_sharing_a_model_match_serial(self):
        # each conv job owns its tile buffers; more threads than
        # cores and a short switch interval make any sharing show. In the
        # second round the concurrent forwards also run their row tiles
        # on the pool that runs them.
        model = init_random(build(TINY), seed=17)
        xs = [random_input(t=64, seed=s) for s in range(8)]
        serial = [model.forward(x)[0].mask_logits for x in xs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                rounds = [
                    [o[0].mask_logits for o in pool.map(forward, xs, timeout=120)]
                    for forward in (model.forward, lambda x: model.forward(x, pool))
                ]
        finally:
            sys.setswitchinterval(interval)
        for threaded in rounds:
            assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_jobs_run_here_leave_nothing_alive_in_a_busy_pool(self):
        # the pool's one thread is busy, so only the caller's job runs
        # (it takes every tile) and the two cancelled jobs wait in the
        # pool's queue; they must not keep the conv's arrays alive
        class Arrays:
            pass

        arrays, ran = Arrays(), []
        alive = weakref.ref(arrays)
        release = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(release.wait, 60)
            resunet._fan_out(pool, 3, lambda arrays=arrays: ran.append(threading.get_ident()))
            del arrays
            held = alive() is not None
            release.set()
        assert ran == [threading.get_ident()]
        assert not held

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize(
        "preset, t, f", [("tiny", 16, 90), ("tiny", 3, 30), ("other-166", 24, 100), ("other-166", 3, 30)]
    )
    def test_row_slabs_match_unsplit_forward(self, preset, t, f, threads):
        # widths that are not multiples of 16; at 3 frames each preset
        # has a 2-row level, fewer rows than 3 threads. conv2 weights x0.1
        # keep the deep net finite.
        model = init_random(build(PRESETS[preset]), seed=t)
        for name, value in model.params.items():
            if name.endswith("conv2.weight"):
                value *= 0.1
        x = random_input(t=t, f=f, seed=t + 1)
        whole = model.forward(x)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pooled = model.forward(x, pool)
        fields = ("mask_logits", "phase_real", "phase_imag", "mag_residual")
        for a, b in zip(whole, pooled, strict=True):
            assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in fields)

    @pytest.mark.parametrize("threads", [0, 1, 2, 3])
    @pytest.mark.parametrize("config", [TINY, OTHER_WIDTHS, VOCALS_WIDTHS],
                             ids=["tiny", "other-widths", "vocals-widths"])
    def test_matches_whole_layer_reference(self, config, threads):
        # T and F are not multiples of 2^L, so every level pads and the
        # head is cropped; the upsample, concat and shortcuts staged in
        # place are the same bits as whole-layer copies and GEMMs
        model = damped_model(config, seed=21)
        x = random_input(t=250, f=257, seed=22)
        if threads:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                got, ref = stacked(model.forward(x, pool)), reference_forward(model, x, pool)
        else:
            got, ref = stacked(model.forward(x)), reference_forward(model, x)
        assert got.shape == ref.shape == (32 * config.out_sources, 250, 257)
        assert np.array_equal(got, ref)

    def test_forward_memory_stays_within_three_top_layers_and_a_few_tiles(self):
        # a decoder level holds its upsample conv's output, its skip and its
        # first block's output; the head holds its input and the cropped
        # output. Each of 2 threads adds its tile buffers.
        model, threads = damped_model(VOCALS_WIDTHS, seed=23), 2
        x = random_input(t=250, f=257, seed=24)
        top = 4 * VOCALS_WIDTHS.channels_per_level[0] * 256 * 288
        head = 4 * 32 * 250 * 257
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tracemalloc.start()
            try:
                model.forward(x, pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < max(3 * top, top + head) + 3 * threads * resunet.TILE_BYTES

    def test_wrong_channel_count_rejected(self):
        model = build(TINY)
        with pytest.raises(ValueError):
            model.forward(np.zeros((4, 32, 257), dtype=np.float32))

    def test_zero_bins_rejected_with_shape(self):
        model = build(TINY)
        with pytest.raises(ValueError, match=r"\(8, 10, 0\)"):
            model.forward(np.zeros((8, 10, 0), dtype=np.float32))

    def test_translation_covariance(self):
        # doubling T leaves interior frames of the shorter clip unchanged
        model = init_random(build(TINY), seed=7)
        rng = np.random.default_rng(8)
        t0 = 64
        x = np.abs(rng.standard_normal((8, 2 * t0, 256))).astype(np.float32)
        short = model.forward(x[:, :t0, :])[0].mask_logits
        long = model.forward(x)[0].mask_logits
        margin = 24
        assert np.max(np.abs(long[:, : t0 - margin, :] - short[:, : t0 - margin, :])) <= 1e-4

    def test_skip_ablation_changes_output(self):
        # zeroing the weights that read the level-0 skip channels is the
        # same as feeding a zero skip tensor to dec0
        model = init_random(build(TINY), seed=9)
        x = random_input(seed=10)
        base = model.forward(x)[0].mask_logits
        ch = TINY.channels_per_level[0]
        params = dict(model.params)
        for name in ("dec0.block0.conv1.weight", "dec0.block0.shortcut.weight"):
            params[name] = params[name].copy()
            params[name][:, ch:] = 0.0
        ablated = Model(TINY, params).forward(x)[0].mask_logits
        assert not np.allclose(base, ablated)

    def test_identity_at_init_block(self):
        # equal-channel residual block with zero weights is the identity
        cfg = ModelConfig(in_channels=4, blocks_per_level=(1,), channels_per_level=(4,))
        model = build(cfg)
        x = np.random.default_rng(11).standard_normal((4, 8, 8)).astype(np.float32)
        assert np.array_equal(model._block(x, "enc0.block0"), x)


def conv_oracle(x, w, b):
    """Literal float64 'same' conv: one output pixel and kernel tap at a time."""
    o, _, k, _ = w.shape
    _, hgt, wid = x.shape
    x, w = x.astype(np.float64), w.astype(np.float64)
    y = np.zeros((o, hgt, wid))
    for p in range(hgt):
        for q in range(wid):
            for i in range(k):
                for j in range(k):
                    u, v = p + i - k // 2, q + j - k // 2
                    if 0 <= u < hgt and 0 <= v < wid:
                        y[:, p, q] += w[:, :, i, j] @ x[:, u, v]
            if b is not None:
                y[:, p, q] += b
    return y


class TestConv2d:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("c, o", [(3, 5), (4, 2)])
    @pytest.mark.parametrize("hgt, wid", [(1, 1), (1, 7), (5, 1), (3, 5), (7, 6), (2, 3)])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("row_tiles", [False, True])
    def test_matches_oracle(self, k, c, o, hgt, wid, bias, row_tiles, monkeypatch):
        # k = 1 is a residual shortcut: no bias, one GEMM per row tile on
        # the staged centre tap of a zero 3x3 conv, so its bias cases
        # repeat its plain one
        rng = np.random.default_rng(hgt * 100 + wid * 10 + c)
        x = rng.standard_normal((c, hgt, wid)).astype(np.float32)
        w = rng.standard_normal((o, c, k, k)).astype(np.float32)
        b = rng.standard_normal(o).astype(np.float32) if bias and k == 3 else None
        # one-row tiles restage the operand over the previous tile's
        # values; otherwise the conv is one tile
        if row_tiles:
            monkeypatch.setattr(resunet, "TILE_BYTES", 1)
        if k == 3:
            got = _conv3x3([x], [(w, b, False)])
        else:
            got = _conv3x3([x], [(np.zeros((o, c, 3, 3), np.float32), None, False)], shortcut=w)
        ref = conv_oracle(x, w, b)
        assert got.shape == (o, hgt, wid) and got.dtype == np.float32
        assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))

    @pytest.mark.parametrize("threads", [8, 16])
    def test_many_slabs_match_unsplit_across_the_small_gemm_size(self, threads):
        # vocals-276 3x3 convs at its two deepest levels for a 10 s
        # segment ([1003, 257] frames x bins, padded to [1024, 288]), and
        # one shape of no preset layer, on pools of more threads than
        # tiles. dec4.block0.conv1 has K = 480.
        layers = [  # c, o, rows, columns
            (48, 64, 128, 36),  # enc3.block0.conv1
            (80, 64, 128, 36),  # dec3.upsample
            (128, 64, 128, 36),  # dec3.block0.conv1
            (64, 80, 64, 18),  # enc4.block0.conv1
            (80, 80, 64, 18),  # enc4.block1.conv2
            (160, 80, 64, 18),  # dec4.block0.conv1
            (16, 32, 64, 18),
        ]
        rng = np.random.default_rng(threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for c, o, hgt, wid in layers:
                x = rng.standard_normal((c, hgt, wid)).astype(np.float32)
                w = (rng.standard_normal((o, c, 3, 3)) / (3 * c)).astype(np.float32)
                b = rng.standard_normal(o).astype(np.float32)
                res = rng.standard_normal((o, hgt, wid)).astype(np.float32)
                unsplit = _conv3x3([x], [(w, b, True)], None, res)
                assert np.array_equal(_conv3x3([x], [(w, b, True)], pool, res), unsplit)

    def test_tiles_do_not_depend_on_the_pool(self, monkeypatch):
        # enc0.block0.conv1 of vocals-276 on 45 rows: one tile, which a
        # pool of any size must not cut further
        c, o, hgt, wid = 8, 16, 45, 288
        rng = np.random.default_rng(1)
        x = rng.standard_normal((c, hgt, wid)).astype(np.float32)
        w = rng.standard_normal((o, c, 3, 3)).astype(np.float32)
        stage, staged = resunet._stage, []

        def recording(parts, lo, hi, taps):
            staged.append((lo, hi))
            stage(parts, lo, hi, taps)

        monkeypatch.setattr(resunet, "_stage", recording)
        runs = []
        for threads in (0, 2, 3):
            staged.clear()
            if threads:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    _conv3x3([x], [(w, None, False)], pool)
            else:
                _conv3x3([x], [(w, None, False)])
            runs.append(sorted(staged))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize(
        "c, o, hgt, wid",
        [
            (8, 16, 45, 288),  # enc0.block0.conv1
            (160, 80, 64, 18),  # dec4.block0.conv1: K = 480
        ],
    )
    def test_row_tiles_match_one_tile(self, c, o, hgt, wid, threads, monkeypatch):
        # tiles of one row and of at most 7 rows against one tile of the
        # whole conv and the oracle. A tile GEMM of other width may round
        # otherwise in the last bits, so only the pool must match exactly.
        rng = np.random.default_rng(c)
        x = rng.standard_normal((c, hgt, wid)).astype(np.float32)
        w = (rng.standard_normal((o, c, 3, 3)) / (3 * c)).astype(np.float32)
        b = rng.standard_normal(o).astype(np.float32)
        res = rng.standard_normal((o, hgt, wid)).astype(np.float32)
        ref = conv_oracle(x, w, b)
        ref = np.maximum(ref, resunet.LEAKY_SLOPE * ref) + res
        peak = np.max(np.abs(ref))
        monkeypatch.setattr(resunet, "TILE_BYTES", 4 * 3 * c * (hgt + 2) * wid)
        assert len(resunet._tiles(hgt, wid, c)) == 1
        whole = _conv3x3([x], [(w, b, True)], None, res)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for rows in (1, 7):
                monkeypatch.setattr(resunet, "TILE_BYTES", 4 * 3 * c * (rows + 2) * wid)
                assert max(t1 - t0 for t0, t1 in resunet._tiles(hgt, wid, c)) <= rows
                tiled = _conv3x3([x], [(w, b, True)], None, res)
                assert np.array_equal(_conv3x3([x], [(w, b, True)], pool, res), tiled)
                assert np.max(np.abs(tiled - whole)) <= 1e-6 * peak
                assert np.max(np.abs(tiled - ref)) <= 1e-5 * peak

    def test_memory_stays_within_the_output_and_a_few_tiles(self):
        # dec0.block0.conv1 of vocals-276 on a 10 s segment, on 2 threads:
        # one whole-layer operand and GEMM output would be 170 MB
        c, o, hgt, wid, threads = 32, 16, 1024, 288, 2
        rng = np.random.default_rng(0)
        x = rng.standard_normal((c, hgt, wid)).astype(np.float32)
        w = (rng.standard_normal((o, c, 3, 3)) / (3 * c)).astype(np.float32)
        b = rng.standard_normal(o).astype(np.float32)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tracemalloc.start()
            try:
                y = _conv3x3([x], [(w, b, True)], pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < y.nbytes + 3 * threads * resunet.TILE_BYTES


def block_weights(c, o, seed):
    """Weights of a c -> o residual block: links of its two convs, and a shortcut if c != o."""
    rng = np.random.default_rng(seed)
    w1 = (rng.standard_normal((o, c, 3, 3)) / (3 * c)).astype(np.float32)
    w2 = (rng.standard_normal((o, o, 3, 3)) / (3 * o)).astype(np.float32)
    b1, b2 = rng.standard_normal((2, o)).astype(np.float32)
    shortcut = rng.standard_normal((o, c, 1, 1)).astype(np.float32) if c != o else None
    return [(w1, b1, True), (w2, b2, False)], shortcut


class TestBlockChain:
    # c -> o at the top level's width: enc0.block1 and dec0.block0 of
    # vocals-276. Narrower layers can put one of the separate convs'
    # GEMMs under OpenBLAS's small-matrix size, where it rounds otherwise.
    @pytest.mark.parametrize("threads", [0, 1, 2, 3])
    @pytest.mark.parametrize("one_row_tiles", [False, True])
    @pytest.mark.parametrize("hgt", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("c, o", [(16, 16), (32, 16)])
    def test_matches_separate_convs(self, c, o, hgt, one_row_tiles, threads, monkeypatch):
        links, shortcut = block_weights(c, o, hgt)
        x = np.random.default_rng(hgt + 10).standard_normal((c, hgt, 288)).astype(np.float32)
        # the chain computes a shortcut per row tile; the separate convs
        # add one GEMM over the whole layer
        residual = x if shortcut is None else layer_shortcut(x, shortcut)
        identity = x if shortcut is None else None
        if one_row_tiles:
            monkeypatch.setattr(resunet, "TILE_BYTES", 1)
            assert len(resunet._tiles(hgt, 288, c, 2)) == hgt
        separate = _conv3x3([_conv3x3([x], links[:1])], links[1:], None, residual)
        if threads:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                chained = _conv3x3([x], links, pool, identity, shortcut)
        else:
            chained = _conv3x3([x], links, None, identity, shortcut)
        assert np.array_equal(chained, separate)

    def test_a_late_pool_thread_takes_each_tile_once(self, monkeypatch):
        # the pool's job starts only after this thread has taken a tile;
        # then both take tiles, and each tile runs exactly once
        c, o, hgt, wid = 16, 16, 8, 288
        links, _ = block_weights(c, o, 0)
        x = np.random.default_rng(1).standard_normal((c, hgt, wid)).astype(np.float32)
        monkeypatch.setattr(resunet, "TILE_BYTES", 1)
        tiles = resunet._tiles(hgt, wid, c, 2)
        separate = _conv3x3([_conv3x3([x], links[:1])], links[1:], None, x)
        here, release, started = threading.get_ident(), threading.Event(), threading.Event()
        stage, staged = resunet._stage, []

        def recording(parts, lo, hi, taps):
            staged.append((threading.get_ident(), parts[0] is x, lo, hi))
            if threading.get_ident() == here:
                release.set()
                assert started.wait(60)
            else:
                started.set()
            stage(parts, lo, hi, taps)

        monkeypatch.setattr(resunet, "_stage", recording)
        # both pool threads wait, so the conv's one pool job starts when released
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(2):
                pool.submit(release.wait, 60)
            chained = _conv3x3([x], links, pool, x)
        assert np.array_equal(chained, separate)
        assert len(staged) == 2 * len(tiles)
        firsts = sorted((lo, hi) for _, of_x, lo, hi in staged if of_x)
        assert firsts == [(t0 - 2, t1 + 2) for t0, t1 in tiles]
        assert len({thread for thread, *_ in staged}) == 2

    def test_many_threads_take_each_tile_once(self, monkeypatch):
        # 64 one-row tiles on 4 threads and this one with a short switch
        # interval: a tile taken twice or never would show in the count
        # or in the result
        links, _ = block_weights(16, 16, 2)
        x = np.random.default_rng(2).standard_normal((16, 64, 288)).astype(np.float32)
        monkeypatch.setattr(resunet, "TILE_BYTES", 1)
        separate = _conv3x3([_conv3x3([x], links[:1])], links[1:], None, x)
        stage, calls = resunet._stage, []
        monkeypatch.setattr(resunet, "_stage", lambda *a: calls.append(1) or stage(*a))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(3):
                    calls.clear()
                    assert np.array_equal(_conv3x3([x], links, pool, x), separate)
                    assert len(calls) == 2 * 64
        finally:
            sys.setswitchinterval(interval)

    def test_block_memory_stays_within_the_output_and_a_few_tiles(self):
        # enc0.block1 of vocals-276 on a 10 s segment, on 2 threads: conv1's
        # output goes through tile-sized buffers, never a [16, 1024, 288] array
        c, hgt, wid, threads = 16, 1024, 288, 2
        model = init_random(build(ModelConfig(in_channels=c, channels_per_level=(c,),
                                              blocks_per_level=(1,))), seed=3)
        x = np.random.default_rng(0).standard_normal((c, hgt, wid)).astype(np.float32)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tracemalloc.start()
            try:
                y = model._block(x, "enc0.block0", pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < y.nbytes + 3 * threads * resunet.TILE_BYTES


class TestParts:
    @pytest.mark.parametrize("one_row_tiles", [False, True])
    @pytest.mark.parametrize("hgt, wid", [(1, 1), (1, 4), (3, 5), (4, 2), (5, 3)])
    def test_upsample_and_skip_staged_as_copies(self, hgt, wid, one_row_tiles, monkeypatch):
        # a nearest 2x upsample and a skip read in place: tiles start on
        # even and odd rows, and one-row tiles stage one row of a pair
        rng = np.random.default_rng(hgt * 10 + wid)
        low = rng.standard_normal((6, hgt, wid)).astype(np.float32)
        skip = rng.standard_normal((3, 2 * hgt, 2 * wid)).astype(np.float32)
        up = np.repeat(np.repeat(low, 2, axis=1), 2, axis=2)
        links, _ = block_weights(9, 4, hgt)
        if one_row_tiles:
            monkeypatch.setattr(resunet, "TILE_BYTES", 1)
        for parts, whole in (([_Up2(low)], up), ([_Up2(low), skip], np.concatenate([up, skip])),
                             ([skip, _Up2(low)], np.concatenate([skip, up]))):
            w = links[0][0][:, : len(whole)]
            assert np.array_equal(_conv3x3(parts, [(w, None, True)]),
                                  _conv3x3([whole], [(w, None, True)]))


@pytest.mark.parametrize("frames", [502, 1003, 2005])
@pytest.mark.parametrize("preset", ["vocals-276", "other-166"])
def test_avgpool_is_the_mean_bit_for_bit(preset, frames):
    # the input of every pool level of a [8, frames, 257] forward; 8, 4
    # and 2 bands give 502, 1003 and 2005 frames for a 10 s input
    cfg = PRESETS[preset]
    mult = 2**cfg.num_levels
    hgt, wid = -(-frames // mult) * mult, -(-257 // mult) * mult
    rng = np.random.default_rng(frames)
    for lvl, c in enumerate(cfg.channels_per_level):
        x = (rng.standard_normal((c, hgt >> lvl, wid >> lvl)) * 10).astype(np.float32)
        mean = x.reshape(c, x.shape[1] // 2, 2, x.shape[2] // 2, 2).mean(axis=(2, 4))
        assert np.array_equal(resunet._avgpool2(x), mean), x.shape


class TestWeightStore:
    def test_round_trip_identical_bytes(self, tmp_path):
        model = init_random(build(TINY), seed=12)
        store = save_weights(model)
        p1 = tmp_path / "a.cwsw"
        p2 = tmp_path / "b.cwsw"
        write_store(store, p1)
        back = read_store(p1)
        write_store(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = model_from_store(back)
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])

    def test_renamed_tensor_detected(self):
        model = init_random(build(TINY), seed=13)
        store = save_weights(model)
        store.tensors["enc0.block0.conv1.weight_OOPS"] = store.tensors.pop(
            "enc0.block0.conv1.weight"
        )
        with pytest.raises(WeightStoreError, match="conv1.weight"):
            model_from_store(store)

    def test_shape_mismatch_detected(self):
        model = init_random(build(TINY), seed=14)
        store = save_weights(model)
        store.tensors["head.weight"] = np.zeros((1, 2, 3, 3), dtype=np.float32)
        with pytest.raises(WeightStoreError, match="head.weight"):
            model_from_store(store)

    @pytest.mark.parametrize("name, expected", [
        ("vocals-276", "8d2c39c819def48a"),
        ("other-166", "5106a54dc3e71ecb"),
        ("tiny", "5c070669933f7713"),
    ])
    def test_preset_config_hashes_pinned(self, name, expected):
        # stored in every .cwsw header: a change would orphan existing files
        assert PRESETS[name].config_hash() == expected

    def test_config_hash_mismatch(self):
        store = save_weights(build(TINY))
        store.config["out_sources"] = 2
        with pytest.raises(WeightStoreError, match="hash"):
            model_from_store(store)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.cwsw"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(WeightStoreError):
            read_store(p)

    def test_write_keeps_no_copy_of_tensors(self, tmp_path):
        # each tensor is written from its own buffer: no bytes copy, no float32 copy
        model = build(PRESETS["vocals-276"])
        weight_bytes = sum(v.nbytes for v in model.params.values())
        tracemalloc.start()
        try:
            store = save_weights(model)
            write_store(store, tmp_path / "zero.cwsw")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * weight_bytes
        assert all(store.tensors[k] is v for k, v in model.params.items())

    @staticmethod
    def _edited_store(tmp_path, edit):
        """A seed-17 tiny store with its JSON header changed in place by `edit`.

        Returns the store's path and the edited header.
        """
        p = tmp_path / "edited.cwsw"
        write_store(save_weights(init_random(build(TINY), seed=17)), p)
        raw = p.read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16 : 16 + header_len])
        edit(header)
        text = json.dumps(header).encode()
        p.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + header_len :])
        return p, header

    @classmethod
    def _store_with_first_entry(cls, tmp_path, **changes):
        """A tiny store whose first header entry gets `changes`; returns its path and name."""
        p, header = cls._edited_store(tmp_path, lambda h: h["tensors"][0].update(changes))
        return p, header["tensors"][0]["name"]

    def test_metadata_key_of_older_stores_ignored(self, tmp_path):
        # earlier writers put {"metadata": {"source_count": n}} in the header
        p, _ = self._edited_store(tmp_path, lambda h: h.update(metadata={"source_count": 1}))
        plain = save_weights(init_random(build(TINY), seed=17))
        loaded = model_from_store(read_store(p))
        assert list(loaded.params) == list(plain.tensors)
        for k, v in plain.tensors.items():
            assert np.array_equal(loaded.params[k], v)

    @pytest.mark.parametrize("count", [None, 15])
    def test_layer_count_of_older_stores_ignored(self, tmp_path, count):
        # earlier writers put the config's declared layer count in the header: null, or
        # the count the config builds (15 for tiny)
        p, header = self._edited_store(
            tmp_path, lambda h: h["config"].update(target_layer_count=count)
        )
        model = init_random(build(TINY), seed=17)
        loaded = model_from_store(read_store(p))
        assert header["config_hash"] == loaded.config.config_hash() == TINY.config_hash()
        x = random_input(seed=18)
        for a, b in zip(loaded.forward(x), model.forward(x), strict=True):
            for name in ("mask_logits", "phase_real", "phase_imag", "mag_residual"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_load_keeps_one_copy_of_each_tensor(self, tmp_path):
        # each tensor is read from the file straight into its own array, which
        # the model takes as it is; the file's bytes are never held whole
        p = tmp_path / "other.cwsw"
        saved = save_weights(init_random(build(PRESETS["other-166"]), seed=19))
        write_store(saved, p)
        tensor_bytes = sum(t.nbytes for t in saved.tensors.values())
        tracemalloc.start()
        try:
            store = read_store(p)
            model = model_from_store(store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * tensor_bytes
        assert all(model.params[k] is t for k, t in store.tensors.items())
        # aligned, writable, native float32: what numpy's matmul hands to BLAS
        for name, t in store.tensors.items():
            assert t.flags.aligned and t.flags.writeable and t.dtype == np.float32
            assert t.dtype.isnative and np.array_equal(t, saved.tensors[name])

    @pytest.mark.parametrize("dtype", ["f16", "f64", None])
    def test_non_f32_dtype_rejected(self, tmp_path, dtype):
        p, name = self._store_with_first_entry(tmp_path, dtype=dtype)
        with pytest.raises(WeightStoreError, match=f"{name}.*dtype"):
            read_store(p)

    @pytest.mark.parametrize("offset", [-16, 1.5, "0", None])
    def test_bad_offset_rejected(self, tmp_path, offset):
        # offset -16 would read the last 16 header bytes as weights
        p, name = self._store_with_first_entry(tmp_path, offset=offset)
        with pytest.raises(WeightStoreError, match=f"{name}.*offset"):
            model_from_store(read_store(p))

    def test_model_from_store(self, tmp_path):
        model = init_random(build(TINY), seed=15)
        p = tmp_path / "m.cwsw"
        write_store(save_weights(model), p)
        rebuilt = model_from_store(read_store(p))
        assert rebuilt.config == TINY
        x = random_input(seed=16)
        assert np.array_equal(rebuilt.forward(x)[0].mask_logits,
                              model.forward(x)[0].mask_logits)
