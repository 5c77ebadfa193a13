"""cwsep benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout whose `src/cwsep` holds the package.
Each workload is a closed loop: one client runs one command at a time,
in a fresh worker process (perfbench/worker.py), for about --seconds.
Inputs come from --seed. Set-up (import, bank design, weight store) is
timed separately, several times, each in a fresh process.

With --trace 0 the last stdout line carries the end-to-end metrics, each
the median over the commands of the run. With --trace 1 untraced and
traced commands alternate; it carries the per-layer metrics, each the
median over traced commands, and spans are written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # a run of one workload must end within 180 s


def call_worker(mode, w, work: Path, seed: int, trace: int, tag: str, deadline: float):
    """Run one worker process; returns (result or None, process wall seconds)."""
    out = work / f"{mode}{tag}.json"
    log = work / f"{mode}{tag}.log"
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode, w.name, str(work),
        "--seed", str(seed), "--trace", str(trace), "--tag", tag, "--out", str(out),
    ]
    env = dict(os.environ)
    env.pop("CWS_THREADS", None)  # the workloads are defined with the default
    t0 = perf_counter()
    with open(log, "w") as lf:
        try:
            proc = subprocess.run(
                cmd, stdout=lf, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                timeout=max(deadline - perf_counter(), 1.0),
            )
            ok = proc.returncode == 0 and out.is_file()
        except subprocess.TimeoutExpired:
            ok = False
    took = perf_counter() - t0
    if not ok:
        sys.stderr.write(f"{w.name} {mode}{tag} failed; log:\n{log.read_text()[-4000:]}\n")
        return None, took
    return json.loads(out.read_text()), took


def run_setups(w, work, seed, repeats, trace, deadline):
    """Set-up `repeats` times; the first writes the files the commands use.

    Later repeats must reproduce its bank and weight files byte for byte.
    Returns (results, failed, attempted).
    """
    results, failed = [], 0
    for k in range(repeats):
        res, _ = call_worker("setup", w, work, seed, trace, "" if k == 0 else f"-{k}", deadline)
        if res is None:
            failed += 1
            if k == 0:
                return results, failed, 1
            continue
        if k > 0:
            differs = [kind for kind, path in res["files"].items()
                       if Path(path).read_bytes() != Path(results[0]["files"][kind]).read_bytes()]
            for path in res["files"].values():
                Path(path).unlink()
            if differs:
                sys.stderr.write(f"set-up {k} wrote a different {', '.join(differs)} file\n")
                failed += 1
                continue
        results.append(res)
    return results, failed, repeats


def run_commands(w, work, seed, seconds, trace, deadline):
    """Commands for about `seconds`: a new one starts only if it is expected to end in time.

    With `trace`, untraced and traced commands alternate, at least one of each.
    """
    runs, failed = [], 0
    t0 = perf_counter()
    k = 0
    while True:
        traced = int(trace and k % 2 == 1)
        res, took = call_worker("iter", w, work, seed, traced, f"-{k}", deadline)
        k += 1
        if res is None or res["failures"]:
            failed += 1
            if res is not None:
                sys.stderr.write(f"{w.name} command {k}: " + "; ".join(res["failures"]) + "\n")
        if res is not None:
            res["traced"] = traced
            runs.append(res)
        shutil.rmtree(work / "out", ignore_errors=True)
        spent = perf_counter() - t0
        if trace and k < 2:
            continue
        if spent + took > seconds or perf_counter() + 2 * took > deadline:
            return runs, failed, k


def highest_percentile(values):
    """(percentile, value) of the highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(w, setups, runs):
    plain = [r for r in runs if not r["traced"]]
    wall = [r["wall_s"] for r in plain]
    metrics = {
        "rtf": statistics.median(wall) / w.audio_s,
        "cpu_rtf": statistics.median(r["cpu_s"] for r in plain) / w.audio_s,
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "quality_db": statistics.median(r["quality_db"] for r in plain),
    }
    samples = {"setup_s": len(setups)}
    return metrics, {k: samples.get(k, len(plain)) for k in metrics}, wall


def per_layer(w, setups, runs):
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    names = list(traced[0]["layers"])
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    # on sep-* the bank is designed in set-up, so its design time is counted there
    for s in setups:
        for k, v in s.get("counts", {}).items():
            if k.startswith("filterbank.design_s."):
                layers[k] += v
    layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    return layers


def write_spans(name, seed, setups, runs):
    path = OUT / f"spans-{name}-s{seed}.jsonl"
    with open(path, "w") as f:
        for i, r in enumerate([*setups, *runs]):
            if "spans" not in r:
                continue
            run_id = f"{name}-s{seed}-{'setup' if i < len(setups) else 'iter'}{i}"
            t0 = min(s[3] for s in r["spans"])
            for sid, parent, span, start, end, thread in r["spans"]:
                f.write(json.dumps({
                    "run": run_id, "id": sid, "parent": parent, "name": span,
                    "start": start - t0, "end": end - t0, "thread": thread,
                }) + "\n")
    return path


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + TIME_LIMIT_S
    w = workloads.WORKLOADS[name]
    work = OUT / f"work-{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.prepare(w, seed, work)
        setups, failed, attempted = run_setups(w, work, seed, 1 if trace else SETUP_REPEATS, trace, deadline)
        runs = []
        if not failed:
            runs, cmd_failed, cmd_attempted = run_commands(w, work, seed, seconds, trace, deadline)
            failed += cmd_failed
            attempted += cmd_attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "facts": setups[0]["facts"] if setups else {},
        "attempted": attempted, "failed": failed,
        "setups": [s["setup_s"] for s in setups],
        "commands": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "quality_db", "details", "traced")}
                     for r in runs],
    }
    plain = [r for r in runs if not r["traced"]]
    ok = failed == 0 and bool(plain) and (not trace or len(plain) < len(runs))
    result["correct"] = ok
    if ok:
        if trace:
            result["metrics"] = per_layer(w, setups, runs)
            result["spans_file"] = str(write_spans(name, seed, setups, runs).relative_to(ROOT))
        else:
            result["metrics"], result["samples"], result["walls"] = end_to_end(w, setups, runs)
    return result


def declared(bench: dict, trace: int) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def report(result: dict, unit: dict) -> None:
    """Human-readable lines for one workload (stdout, before the JSON line)."""
    print(f"== {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']}")
    metrics = result.get("metrics", {})
    for k in unit if metrics else ():
        n = result.get("samples", {}).get(k)
        extra = f"  (median of {n})" if n else ""
        print(f"  {k:<26} {metrics[k]:>14.6g} {unit[k]}{extra}")
    pct = highest_percentile(result.get("walls", []))
    if pct is not None:
        print(f"  wall_s p{pct[0]:.0f} {pct[1]:.6g} s")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  fail_rate {rate:g} ({result['failed']} of {result['attempted']} set-ups and commands)")
    details = {}
    for c in result["commands"]:
        for k, v in c["details"].items():
            details.setdefault(k, []).append(v)
    if details:
        print("  outputs: " + ", ".join(f"{k}={statistics.median(v):.6g}" for k, v in details.items()))
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in result["facts"].items()))


def result_line(result: dict, unit: dict) -> dict:
    metrics = result.get("metrics", {})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in unit.items()} if metrics else {},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    seeds = json.loads((HERE / "spec.json").read_text())["seeds"]
    p.add_argument("--seed", type=int, default=seeds["development"])
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cwsep" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/cwsep package or no BENCHMARK.json", file=sys.stderr)
        return 2
    unit = declared(json.loads((ROOT / "BENCHMARK.json").read_text()), args.trace)
    OUT.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        (OUT / f"result-{name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(result, indent=1))
        report(result, unit)
        results.append(result)
    if len(results) == 1:
        line = result_line(results[0], unit)
    else:
        lines = [result_line(r, unit) for r in results]
        line = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {
                f"{r['workload']}/{k}": v for r, x in zip(results, lines) for k, v in x["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
