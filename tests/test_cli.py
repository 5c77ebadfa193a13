import json
import struct

import numpy as np
import pytest

from cwsep import (
    FilterBank,
    PRESETS,
    Waveform,
    build,
    init_random,
    measure_reconstruction,
    read_wav,
    save_weights,
    write_store,
    write_wav,
)
from cwsep import pipeline
from cwsep.cli import main

from conftest import noise_waveform


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def earlier_format(doc):
    """The bank file format that stored the modulated filters, not the prototype."""
    fb = FilterBank.from_json(json.dumps(doc))
    return {"num_bands": fb.num_bands, "taps": 64, "system_delay": 63,
            "analysis": fb.analysis.tolist(), "synthesis": fb.synthesis.tolist()}


@pytest.fixture(scope="module")
def fb_json_path(tmp_path_factory, fb4):
    p = tmp_path_factory.mktemp("fb") / "fb4.json"
    p.write_text(fb4.to_json())
    return p


@pytest.fixture(scope="module")
def tiny_weights_path(tmp_path_factory):
    model = init_random(build(PRESETS["tiny"]), seed=100)
    p = tmp_path_factory.mktemp("w") / "tiny.cwsw"
    write_store(save_weights(model), p)
    return p


@pytest.fixture(scope="module")
def zero_weights_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("w0") / "zero.cwsw"
    write_store(save_weights(build(PRESETS["tiny"])), p)
    return p


class TestDesignFilters:
    def test_writes_bank_and_reloads(self, tmp_path, capsys):
        out = tmp_path / "fb2.json"
        code, _, err = run(capsys, "design-filters", "--bands", "2", "--out", str(out))
        assert code == 0
        assert "SNR" in err
        fb = FilterBank.from_json(out.read_text())
        assert fb.analysis.shape == (2, 64)
        assert fb.synthesis.shape == (2, 64)

    @pytest.mark.parametrize("argv", [
        ["design-filters", "--bands", "3", "--out", "fb.json"],
        # every bank is designed at 64 taps, so --taps is an unknown option
        ["design-filters", "--bands", "4", "--taps", "64", "--out", "fb.json"],
        ["recon-test", "--taps", "64", "--noise-seconds", "1"],
        # recon-test takes exactly one probe
        ["recon-test", "--bands-list", "4", "--input", "p.wav", "--noise-seconds", "5"],
    ], ids=["bands-3", "design-taps", "recon-taps", "two-probes"])
    def test_argparse_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        def no_design(*args, **kwargs):
            raise AssertionError("bank designed")

        monkeypatch.setattr("cwsep.filterbank.design_filterbank", no_design)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert capsys.readouterr().out == ""
        assert not any(tmp_path.iterdir())


class TestReconTest:
    def test_noise_probe_table(self, capsys):
        code, out, err = run(capsys, "recon-test", "--bands-list", "2,4,8",
                             "--noise-seconds", "10", "--precision", "f32")
        assert code == 0
        doc = json.loads(out)
        rows = {r["bands"]: r for r in doc["results"]}
        assert rows[2]["snr_db"] >= 60.0
        assert rows[4]["snr_db"] >= 60.0
        assert rows[8]["snr_db"] <= rows[4]["snr_db"] <= rows[2]["snr_db"]
        assert rows[4]["max_abs_err"] <= 1e-3

    def test_f64_not_worse_than_f32(self, capsys):
        # precision effect is far below the design error for these banks,
        # so the ordering is asserted with a 0.01 dB tolerance
        code, out32, _ = run(capsys, "recon-test", "--bands-list", "4",
                             "--noise-seconds", "5", "--precision", "f32")
        assert code == 0
        code, out64, _ = run(capsys, "recon-test", "--bands-list", "4",
                             "--noise-seconds", "5", "--precision", "f64")
        assert code == 0
        snr32 = json.loads(out32)["results"][0]["snr_db"]
        snr64 = json.loads(out64)["results"][0]["snr_db"]
        assert snr64 >= snr32 - 0.01

    def test_missing_probe_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["recon-test", "--bands-list", "4"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "noise-seconds" in captured.err

    def test_precision_casts_the_probe(self, tmp_path, capsys, fb4):
        wav = tmp_path / "probe.wav"
        write_wav(noise_waveform(2.0), wav, format="float32")
        code, out, _ = run(capsys, "recon-test", "--bands-list", "4",
                           "--input", str(wav), "--precision", "f64")
        assert code == 0
        probe = read_wav(wav)
        assert probe.samples.dtype == np.float32
        rep = measure_reconstruction(
            fb4, Waveform(probe.samples.astype(np.float64), probe.sample_rate))
        row = json.loads(out)["results"][0]
        assert (row["snr_db"], row["max_abs_err"]) == (rep.snr_db, rep.max_abs_err)

    def test_wav_probe(self, tmp_path, capsys):
        wav = tmp_path / "probe.wav"
        write_wav(noise_waveform(2.0), wav, format="float32")
        code, out, _ = run(capsys, "recon-test", "--bands-list", "4",
                           "--input", str(wav))
        assert code == 0
        assert json.loads(out)["results"][0]["snr_db"] >= 60.0

    def test_unreadable_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav")
        code, _, err = run(capsys, "recon-test", "--bands-list", "4",
                           "--input", str(bad))
        assert code == 1


    @pytest.mark.parametrize("bands_list, bad", [("2,x", "'x'"), ("3", "'3'"), ("4,,8", "''")])
    def test_bad_bands_entry_usage_error(self, capsys, bands_list, bad):
        code, out, err = run(capsys, "recon-test", "--bands-list", bands_list,
                             "--noise-seconds", "1")
        assert code == 2
        assert f"entry {bad}" in err
        assert "snr_db" not in err
        assert out == ""

    @pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf"])
    def test_bad_noise_seconds_usage_error(self, capsys, monkeypatch, seconds):
        def no_design(*args, **kwargs):
            raise AssertionError("bank designed before --noise-seconds was checked")

        monkeypatch.setattr("cwsep.filterbank.design_filterbank", no_design)
        code, out, err = run(capsys, "recon-test", "--bands-list", "4",
                             "--noise-seconds", seconds)
        assert code == 2
        assert "--noise-seconds" in err
        assert out == ""

    @pytest.mark.parametrize("seconds, samples", [("0.00001", 0), ("0.005", 220)])
    def test_short_noise_probe_usage_error(self, capsys, monkeypatch, seconds, samples):
        def no_design(*args, **kwargs):
            raise AssertionError("bank designed before the probe length was checked")

        monkeypatch.setattr("cwsep.filterbank.design_filterbank", no_design)
        code, out, err = run(capsys, "recon-test", "--bands-list", "4",
                             "--noise-seconds", seconds)
        assert code == 2
        assert f"--noise-seconds gives a {samples}-sample probe" in err
        assert "at least 256" in err
        assert "snr_db" not in err
        assert out == ""


class TestSeparate:
    def test_smoke(self, tmp_path, capsys, fb_json_path, tiny_weights_path):
        wav = tmp_path / "mix.wav"
        x = noise_waveform(2.0, channels=2, seed=50)
        write_wav(x, wav, format="float32")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "separate", "--input", str(wav),
                           "--weights", str(tiny_weights_path),
                           "--filters", str(fb_json_path),
                           "--sources", "vocals", "--out-dir", str(out_dir))
        assert code == 0
        est = read_wav(out_dir / "vocals.wav")
        assert est.num_channels == 2
        assert est.num_samples == x.num_samples
        assert np.all(np.isfinite(est.samples))

    def test_residual_with_null_vocals(self, tmp_path, capsys, fb_json_path,
                                       zero_weights_path):
        # zero weights produce a zero phase vector, which nulls the vocals
        # estimate; the instrumental residual then equals the input
        wav = tmp_path / "mix.wav"
        x = noise_waveform(2.0, channels=2, seed=51)
        write_wav(x, wav, format="float32")
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "separate", "--input", str(wav),
                         "--weights", str(zero_weights_path),
                         "--filters", str(fb_json_path),
                         "--sources", "vocals", "--out-dir", str(out_dir),
                         "--residual-instrumental")
        assert code == 0
        residual = read_wav(out_dir / "instrumental.wav")
        s = x.samples
        e = residual.samples - s
        snr = 10 * np.log10(np.sum(s**2) / max(np.sum(e**2), 1e-300))
        assert snr >= 55.0

    def test_residual_of_mono_input(self, tmp_path, capsys, fb_json_path, tiny_weights_path):
        # a mono mixture is subtracted from each channel of the stereo vocals
        wav = tmp_path / "mono.wav"
        write_wav(noise_waveform(1.5, channels=1, seed=52), wav, format="float32")
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "separate", "--input", str(wav),
                         "--weights", str(tiny_weights_path),
                         "--filters", str(fb_json_path),
                         "--out-dir", str(out_dir), "--residual-instrumental")
        assert code == 0
        mono = read_wav(wav).samples[0]
        vocals = read_wav(out_dir / "vocals.wav").samples
        residual = read_wav(out_dir / "instrumental.wav").samples
        assert residual.shape == vocals.shape == (2, mono.size)
        for channel in range(2):
            assert np.array_equal(residual[channel], mono - vocals[channel])

    def test_threads_default_to_one_per_cpu(self, tmp_path, capsys, monkeypatch,
                                            fb_json_path, tiny_weights_path):
        seen = []
        real = pipeline.separate

        def recording(x, model, fb, workers=0):
            seen.append(workers)
            return real(x, model, fb, workers)

        wav = tmp_path / "mix.wav"
        write_wav(noise_waveform(1.0, channels=2), wav, format="float32")
        monkeypatch.setattr(pipeline, "separate", recording)
        code, _, _ = run(capsys, "separate", "--input", str(wav),
                         "--weights", str(tiny_weights_path),
                         "--filters", str(fb_json_path),
                         "--out-dir", str(tmp_path / "o"))
        assert code == 0
        assert seen == [0]

    def test_missing_weights_usage_error(self, capsys, fb_json_path):
        with pytest.raises(SystemExit) as e:
            main(["separate", "--input", "x.wav", "--filters", str(fb_json_path),
                  "--out-dir", "/tmp/o"])
        assert e.value.code == 2

    def test_source_count_mismatch(self, tmp_path, capsys, fb_json_path,
                                   tiny_weights_path):
        wav = tmp_path / "mix.wav"
        write_wav(noise_waveform(1.0, channels=2), wav, format="float32")
        code, _, err = run(capsys, "separate", "--input", str(wav),
                           "--weights", str(tiny_weights_path),
                           "--filters", str(fb_json_path),
                           "--sources", "vocals,other",
                           "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "weights stage" in err


    def test_unknown_config_key_weights_stage(self, tmp_path, capsys, fb_json_path):
        store = save_weights(build(PRESETS["tiny"]))
        store.config["kernel_size"] = 5
        weights = tmp_path / "odd.cwsw"
        write_store(store, weights)
        wav = tmp_path / "mix.wav"
        write_wav(noise_waveform(1.0, channels=2), wav, format="float32")
        code, _, err = run(capsys, "separate", "--input", str(wav),
                           "--weights", str(weights),
                           "--filters", str(fb_json_path),
                           "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "weights stage:" in err and "kernel_size" in err
        assert not (tmp_path / "o").exists()

    def test_repeated_source_usage_error(self, tmp_path, capsys, fb_json_path,
                                         tiny_weights_path):
        # checked before the input is read: the input does not exist
        code, _, err = run(capsys, "separate", "--input", str(tmp_path / "missing.wav"),
                           "--weights", str(tiny_weights_path),
                           "--filters", str(fb_json_path),
                           "--sources", "vocals,vocals",
                           "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "--sources" in err and "vocals" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "sources, extra, cause",
        [
            ("voc/als", (), "--sources name 'voc/als' is not a plain file name"),
            ("../x", (), "--sources name '../x' is not a plain file name"),
            ("..", (), "--sources name '..' is not a plain file name"),
            # the residual would replace the model's own instrumental estimate
            ("vocals,instrumental", ("--residual-instrumental",),
             "--residual-instrumental would overwrite the model's 'instrumental' source"),
        ],
        ids=["slash", "parent-path", "dot-dot", "instrumental-residual"],
    )
    def test_bad_source_names_usage_error(self, tmp_path, capsys, fb_json_path,
                                          tiny_weights_path, sources, extra, cause):
        # checked before the input is read: the input does not exist
        out_dir = tmp_path / "a" / "o"
        code, _, err = run(capsys, "separate", "--input", str(tmp_path / "missing.wav"),
                           "--weights", str(tiny_weights_path),
                           "--filters", str(fb_json_path),
                           "--sources", sources, "--out-dir", str(out_dir), *extra)
        assert code == 2
        assert cause in err
        assert list(tmp_path.iterdir()) == []

    def test_bank_weights_mismatch_before_analysis(self, tmp_path, capsys, monkeypatch, fb8,
                                                   tiny_weights_path):
        def no_analysis(*args):
            raise AssertionError("analysis ran")

        monkeypatch.setattr("cwsep.filterbank.analysis", no_analysis)
        filters = tmp_path / "fb8.json"
        filters.write_text(fb8.to_json())
        wav = tmp_path / "mix.wav"
        write_wav(noise_waveform(1.0, channels=2), wav, format="float32")
        code, _, err = run(capsys, "separate", "--input", str(wav),
                           "--weights", str(tiny_weights_path),
                           "--filters", str(filters),
                           "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "model takes 8 input streams but the 8-band bank gives 16" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_dir_on_a_file_before_analysis(self, tmp_path, capsys, monkeypatch,
                                               fb_json_path, tiny_weights_path, under):
        def no_analysis(*args):
            raise AssertionError("analysis ran")

        monkeypatch.setattr("cwsep.filterbank.analysis", no_analysis)
        wav = tmp_path / "mix.wav"
        write_wav(noise_waveform(1.0, channels=2), wav, format="float32")
        taken = tmp_path / "taken"
        taken.write_bytes(b"keep me")
        out_dir = taken / "o" if under else taken
        code, out, err = run(capsys, "separate", "--input", str(wav),
                             "--weights", str(tiny_weights_path),
                             "--filters", str(fb_json_path),
                             "--out-dir", str(out_dir))
        assert code == 2
        assert "--out-dir" in err and "is not a directory" in err
        assert out == ""
        assert taken.read_bytes() == b"keep me"

    def separate_with(self, tmp_path, capsys, filters, weights):
        wav = tmp_path / "mix.wav"
        write_wav(noise_waveform(1.0, channels=2), wav, format="float32")
        code, _, err = run(capsys, "separate", "--input", str(wav),
                           "--weights", str(weights),
                           "--filters", str(filters),
                           "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert not (tmp_path / "o").exists()
        return err

    @pytest.mark.parametrize(
        "edit, cause",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "prototype"},
             "filter bank JSON has no 'prototype'"),
            (lambda doc: [doc], "filter bank JSON is a list, not an object"),
            # 8 == 2 * 4.0 passed the weights stage, and separate failed unnamed
            (lambda doc: {**doc, "num_bands": 4.0}, "num_bands must be one of (2, 4, 8), got 4.0"),
            (lambda doc: {**doc, "prototype": doc["prototype"][:63]},
             "prototype must be 64 coefficients, got shape (63,)"),
            (lambda doc: {**doc, "prototype": doc["prototype"][:63] + [float("nan")]},
             "prototype coefficients must be finite"),
            (earlier_format, "filter bank JSON has no 'prototype'"),
        ],
        ids=["no-prototype", "list", "float-bands", "short-prototype", "nan-prototype",
             "earlier-format"],
    )
    def test_malformed_bank_named(self, tmp_path, capsys, fb4, tiny_weights_path, edit,
                                  cause):
        filters = tmp_path / "bad_fb.json"
        filters.write_text(json.dumps(edit(json.loads(fb4.to_json()))))
        err = self.separate_with(tmp_path, capsys, filters, tiny_weights_path)
        assert f"filter stage: {cause}" in err

    @pytest.mark.parametrize(
        "header, cause",
        [
            (None, "truncated header"),
            ({"config_hash": "0", "config": None}, "header has no 'tensors'"),
            ({"config_hash": "0", "config": [], "tensors": []},
             "header's 'config' is not an object"),
            ({"config_hash": "0", "config": {}, "tensors": [1]},
             "tensor entry 0 is not an object with a string 'name'"),
            ({"config_hash": "0", "config": {}, "tensors": [{"name": "a", "offset": 0}]},
             "tensor 'a' has shape None, expected a list of integers >= 0"),
            ({"config_hash": "0", "config": {}, "tensors": [{"name": "a", "shape": "abc"}]},
             "tensor 'a' has shape 'abc', expected a list of integers >= 0"),
            ({"config_hash": "0", "config": {"blocks_per_level": [1.5, 1]}, "tensors": []},
             "blocks_per_level must be a sequence of integers >= 1, got [1.5, 1]"),
            ({"config_hash": "0", "config": {"channels_per_level": [4, -8]}, "tensors": []},
             "channels_per_level must be a sequence of integers >= 1, got [4, -8]"),
            ({"config_hash": "0", "config": {"blocks_per_level": 5}, "tensors": []},
             "blocks_per_level must be a sequence of integers >= 1, got 5"),
            (b"{not json", "header is not UTF-8 JSON"),
            (b"\xff\xfe", "header is not UTF-8 JSON"),
            # a later entry of a name would replace the earlier one
            ({"config_hash": "0", "config": {},
              "tensors": [{"name": "a", "shape": [0], "dtype": "f32", "offset": 0}] * 2},
             "tensor 'a' is listed more than once"),
        ],
        ids=["ten-bytes", "no-tensors", "config-list", "int-entry", "no-shape", "string-shape",
             "float-blocks", "negative-channels", "int-blocks", "not-json", "not-utf8",
             "duplicate-name"],
    )
    def test_malformed_store_named(self, tmp_path, capsys, fb_json_path, header, cause):
        if header is None:
            raw = b"CWSW" + struct.pack("<I", 1) + bytes(2)
        else:
            text = header if isinstance(header, bytes) else json.dumps(header).encode()
            raw = b"CWSW" + struct.pack("<IQ", 1, len(text)) + text
        weights = tmp_path / "bad.cwsw"
        weights.write_bytes(raw)
        err = self.separate_with(tmp_path, capsys, fb_json_path, weights)
        assert "weights stage:" in err and cause in err


class TestEvaluate:
    def make_pair(self, tmp_path, ratio=None):
        ref = noise_waveform(2.0, channels=2, seed=60)
        if ratio is None:
            est = ref
        else:
            rng = np.random.default_rng(61)
            e = rng.standard_normal(ref.samples.shape)
            scale = np.sqrt(np.sum(ref.samples**2) / (ratio * np.sum(e**2)))
            est = Waveform(ref.samples + scale * e, 44100)
        rp, ep = tmp_path / "ref.wav", tmp_path / "est.wav"
        write_wav(ref, rp, format="float32")
        write_wav(est, ep, format="float32")
        return rp, ep

    def test_identical_files_capped(self, tmp_path, capsys):
        rp, ep = self.make_pair(tmp_path)
        code, out, _ = run(capsys, "evaluate", "--reference", str(rp),
                           "--estimate", str(ep))
        assert code == 0
        assert json.loads(out)["sdr_global_db"] == 300.0

    def test_twenty_db_pair(self, tmp_path, capsys):
        rp, ep = self.make_pair(tmp_path, ratio=100.0)
        out_json = tmp_path / "report.json"
        code, _, _ = run(capsys, "evaluate", "--reference", str(rp),
                         "--estimate", str(ep), "--out", str(out_json))
        assert code == 0
        rep = json.loads(out_json.read_text())
        assert abs(rep["sdr_global_db"] - 20.0) <= 1e-4  # f32 wav quantization
        assert rep["frames_used"] == 2

    def test_length_mismatch_without_flag(self, tmp_path, capsys):
        rp, _ = self.make_pair(tmp_path)
        short = tmp_path / "short.wav"
        write_wav(noise_waveform(1.0, channels=2, seed=62), short, format="float32")
        code, _, err = run(capsys, "evaluate", "--reference", str(rp),
                           "--estimate", str(short))
        assert code == 2
        assert "--trim-to-shorter" in err

    def test_trim_to_shorter(self, tmp_path, capsys):
        rp, _ = self.make_pair(tmp_path)
        short = tmp_path / "short.wav"
        ref = read_wav(rp)
        write_wav(Waveform(ref.samples[:, :44100], 44100), short, format="float32")
        code, out, _ = run(capsys, "evaluate", "--reference", str(rp),
                           "--estimate", str(short), "--trim-to-shorter")
        assert code == 0
        assert json.loads(out)["sdr_global_db"] == 300.0

    def test_sample_rate_mismatch(self, tmp_path, capsys):
        rp, _ = self.make_pair(tmp_path)
        ref = read_wav(rp)
        tagged = tmp_path / "tagged.wav"
        write_wav(Waveform(ref.samples, 48000), tagged, format="float32")
        code, out, err = run(capsys, "evaluate", "--reference", str(rp),
                             "--estimate", str(tagged))
        assert code == 1
        assert "44100 Hz vs 48000 Hz" in err
        assert out == ""
