"""One set-up or one command of a workload, in a fresh interpreter.

    python3 perfbench/worker.py setup|iter WORKLOAD WORKDIR --seed N --trace 0|1 --tag T --out RESULT.json

`setup` times what a user pays once: `import cwsep`, designing the
workload's bank to JSON, and writing, reading and loading its weight
store. `iter` runs the workload's command once, timed, then checks its
outputs. Each runs in its own process so that import time, CPU time and
peak RSS belong to it alone. The result, with spans when traced, is
written as JSON to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# cwsep is imported before numpy and scipy, so that its import time includes theirs
_t0 = perf_counter()
sys.path.insert(0, str(SRC))
import cwsep  # noqa: E402

IMPORT_S = perf_counter() - _t0
if not Path(cwsep.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"cwsep imported from {cwsep.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

CW = SimpleNamespace(**{m: importlib.import_module(f"cwsep.{m}") for m in spans.LAYERS})


def _blas_threads():
    """OpenBLAS thread count through ctypes, or None if no known symbol is reachable."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        **{k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CWS_THREADS")},
    }


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def setup(w, work: Path, seed: int, tag: str, tracer):
    parts = {"import_s": IMPORT_S}
    files = {}
    with tracer.root_span(f"setup.{w.name}") if tracer else contextlib.nullcontext():
        if w.bands is not None:
            t0 = perf_counter()
            fb = CW.filterbank.design_filterbank(num_bands=w.bands)
            files["bank"] = work / f"fb{tag}.json"
            files["bank"].write_text(fb.to_json())
            parts["design_s"] = perf_counter() - t0
        if w.preset is not None:
            rule = json.loads((HERE / "spec.json").read_text())["weights"]
            model = workloads.make_model(CW, w.preset, seed, rule)  # input, not timed
            t0 = perf_counter()
            files["weights"] = work / f"weights{tag}.cwsw"
            CW.resunet.write_store(CW.resunet.save_weights(model), files["weights"])
            CW.resunet.model_from_store(CW.resunet.read_store(files["weights"]))
            parts["store_s"] = perf_counter() - t0
    return {
        "setup_s": sum(parts.values()),
        "parts": parts,
        "files": {k: str(v) for k, v in files.items()},
        "facts": machine_facts(),
    }


def iterate(w, work: Path, seed: int, tracer):
    body = workloads.BODIES[w.name]
    with tracer.root_span(f"iter.{w.name}") if tracer else contextlib.nullcontext():
        cpu0 = _cpu_s()
        t0 = perf_counter()
        outputs = body(CW, work)
        wall = perf_counter() - t0
        cpu = _cpu_s() - cpu0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.active = False  # the checks below are not part of the command
    quality, details, failures = workloads.CHECKS[w.name](CW, work, seed, outputs)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_mb,
        "quality_db": quality,
        "details": details,
        "failures": failures,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "iter"))
    p.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("work", type=Path)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tag", default="")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer, cwsep)
    if args.mode == "setup":
        result = setup(w, args.work, args.seed, args.tag, tracer)
    else:
        result = iterate(w, args.work, args.seed, tracer)
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counts, tracer.root)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
