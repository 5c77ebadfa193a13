"""Command-line interface.

Subcommands: design-filters, recon-test, separate, evaluate. Exit codes:
0 success, 2 usage error, 1 runtime failure. Human-readable tables go to
stderr; JSON reports go to stdout or the requested files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import filterbank as fbmod
from . import metrics, pipeline, resunet
from .filterbank import FilterBank
from .wave_io import Waveform, read_wav, write_wav

NOISE_SEED = 1234


class UsageError(Exception):
    pass


def _noise_probe(seconds: float) -> Waveform:
    rng = np.random.default_rng(NOISE_SEED)
    n = int(round(seconds * pipeline.PIPELINE_RATE))
    return Waveform(0.1 * rng.standard_normal((1, n)), pipeline.PIPELINE_RATE)


def cmd_design_filters(args) -> int:
    fb = fbmod.design_filterbank(num_bands=args.bands)
    Path(args.out).write_text(fb.to_json())
    report = fbmod.measure_reconstruction(fb, _noise_probe(10.0))
    print(
        f"designed {args.bands}-band/{fb.taps}-tap bank -> {args.out}\n"
        f"reconstruction SNR on 10 s noise: {report.snr_db:.2f} dB "
        f"(max abs err {report.max_abs_err:.3e})",
        file=sys.stderr,
    )
    return 0


def cmd_recon_test(args) -> int:
    if args.noise_seconds is not None and not 0 < args.noise_seconds < math.inf:
        raise UsageError(f"--noise-seconds must be finite and > 0, got {args.noise_seconds}")
    supported = {str(b): b for b in fbmod.SUPPORTED_BANDS}
    entries = [e.strip() for e in args.bands_list.split(",")]
    for entry in entries:
        if entry not in supported:
            raise UsageError(
                f"--bands-list entry {entry!r} is not one of {fbmod.SUPPORTED_BANDS}"
            )
    bands_list = [supported[e] for e in entries]
    if args.input is not None:
        probe, flag = read_wav(args.input), "--input"
    else:
        probe, flag = _noise_probe(args.noise_seconds), "--noise-seconds"
    if probe.num_samples < 4 * fbmod.TAPS:
        raise UsageError(
            f"{flag} gives a {probe.num_samples}-sample probe; "
            f"at least {4 * fbmod.TAPS} (4 x the {fbmod.TAPS}-tap filter) are needed"
        )
    dtype = {"f32": np.float32, "f64": np.float64}[args.precision]
    probe = Waveform(probe.samples.astype(dtype, copy=False), probe.sample_rate)
    results = []
    print(f"{'bands':>6} {'snr_db':>10} {'max_abs_err':>12}", file=sys.stderr)
    for bands in bands_list:
        fb = fbmod.design_filterbank(num_bands=bands)
        rep = fbmod.measure_reconstruction(fb, probe)
        results.append(
            {"bands": bands, "snr_db": rep.snr_db, "max_abs_err": rep.max_abs_err}
        )
        print(f"{bands:>6} {rep.snr_db:>10.2f} {rep.max_abs_err:>12.3e}", file=sys.stderr)
    print(json.dumps({"precision": args.precision, "results": results}))
    return 0


def cmd_separate(args) -> int:
    sources = [s.strip() for s in args.sources.split(",") if s.strip()]
    if not sources:
        raise UsageError("--sources must name at least one source")
    if len(set(sources)) != len(sources):
        raise UsageError(f"--sources names a source more than once: {args.sources!r}")
    for name in sources:
        # each source is written to <out-dir>/<name>.wav
        if name in (".", "..") or Path(name).name != name:
            raise UsageError(f"--sources name {name!r} is not a plain file name")
    if args.residual_instrumental and "vocals" not in sources:
        raise UsageError("--residual-instrumental requires 'vocals' among --sources")
    if args.residual_instrumental and "instrumental" in sources:
        raise UsageError(
            "--residual-instrumental would overwrite the model's 'instrumental' source"
        )
    out_dir = Path(args.out_dir)
    # mkdir needs the nearest existing path to be a directory
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise UsageError(f"--out-dir {args.out_dir!r}: {nearest} is not a directory")

    try:
        mixture = read_wav(args.input)
    except Exception as e:
        raise RuntimeError(f"input stage: {e}") from e
    try:
        fb = FilterBank.from_json(Path(args.filters).read_text())
    except Exception as e:
        raise RuntimeError(f"filter stage: {e}") from e
    try:
        store = resunet.read_store(args.weights)
        model = resunet.model_from_store(store)
    except Exception as e:
        raise RuntimeError(f"weights stage: {e}") from e
    if model.out_sources != len(sources):
        raise RuntimeError(
            f"weights stage: model estimates {model.out_sources} sources "
            f"but --sources names {len(sources)}"
        )

    estimates = pipeline.separate(mixture, model, fb)

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, est in zip(sources, estimates):
        path = out_dir / f"{name}.wav"
        write_wav(est, path, format="float32")
        print(f"wrote {path}", file=sys.stderr)
    if args.residual_instrumental:
        # separate returns the input's length, so a mono mixture broadcasts
        residual = mixture.samples - estimates[sources.index("vocals")].samples
        path = out_dir / "instrumental.wav"
        write_wav(Waveform(residual, mixture.sample_rate), path, format="float32")
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    reference = read_wav(args.reference)
    estimate = read_wav(args.estimate)
    if reference.num_samples != estimate.num_samples:
        if not args.trim_to_shorter:
            raise UsageError(
                f"length mismatch ({reference.num_samples} vs {estimate.num_samples}); "
                "pass --trim-to-shorter to compare the overlapping part"
            )
        n = min(reference.num_samples, estimate.num_samples)
        reference = Waveform(reference.samples[:, :n], reference.sample_rate)
        estimate = Waveform(estimate.samples[:, :n], estimate.sample_rate)

    report = metrics.evaluation_report(
        reference,
        estimate,
        track=Path(args.reference).stem,
        source=Path(args.estimate).stem,
    )
    text = json.dumps(report)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cwsep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design-filters", help="design an analysis/synthesis filterbank")
    p.add_argument("--bands", type=int, choices=fbmod.SUPPORTED_BANDS, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design_filters)

    p = sub.add_parser("recon-test", help="measure subband reconstruction error")
    p.add_argument("--bands-list", default="2,4,8")
    probe = p.add_mutually_exclusive_group(required=True)
    probe.add_argument("--input", help="WAV probe file")
    probe.add_argument("--noise-seconds", type=float, help="seeded white-noise probe")
    p.add_argument("--precision", choices=("f32", "f64"), default="f32")
    p.set_defaults(func=cmd_recon_test)

    p = sub.add_parser("separate", help="separate sources from a mixture")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--filters", required=True)
    p.add_argument("--sources", default="vocals")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--residual-instrumental", action="store_true")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="SDR metrics between reference and estimate")
    p.add_argument("--reference", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--trim-to-shorter", action="store_true")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
