"""byzfc benchmark: the verdict path and the Monte Carlo decode path.

Run one workload in a fresh single-threaded process:

    python3 bench/run.py --workload decode-float --seed 1 --seconds 15 --trace 0

or every workload, untraced and traced, with a summary:

    python3 bench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads, metrics and the layer map are described in bench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()   # set-up is timed from here, before any heavy import

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
SETUP_SAMPLES = 3          # fresh-process set-ups per untraced run
REF_EVERY_S = 0.25         # how often a run re-times the reference loop
OUT_DIR = ROOT / ".bench_out"

# shares that process-local timers measured on the code before the benchmark
# existed, which the traced runs should confirm: (metric, workload, low, high)
SEED_TRACE = [("simplex.phase1_share", "verdict-random", 0.88, 0.97),
              ("viewsets.distance_share", "decode-float", 0.85, 0.95)]


def import_package():
    """Import byzfc from this checkout's src/, or exit 1 without a result."""
    src = ROOT / "src"
    if not (src / "byzfc" / "__init__.py").is_file():
        sys.exit(f"bench: no byzfc package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import byzfc
    if Path(byzfc.__file__).resolve().parent != src / "byzfc":
        sys.exit(f"bench: imported byzfc from {byzfc.__file__}, not from {src}")


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or commit
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "seed": seed}


@contextmanager
def _no_span(name):
    yield


def _reference_loop() -> int:
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def reference_ms() -> float:
    """Median time of three runs of a fixed pure-Python loop, in ms.

    Shared hosts change speed by up to 1.6x within a minute.  The loop is
    re-timed throughout a run so that each operation's time can also be
    read in units of this loop, which cancels those swings.
    """
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def in_reference_units(starts, lat, refs) -> list[float]:
    """Each operation's time over the reference time interpolated at its midpoint."""
    import numpy as np

    mids = np.asarray(starts) + np.asarray(lat) / 2
    ref = np.interp(mids, [t for t, _ in refs], [ms for _, ms in refs])
    return list(np.asarray(lat) * 1e3 / ref)


def measure(workload, seconds: float, span) -> dict:
    """Run passes until ``seconds`` have elapsed and ``min_passes`` are done."""
    clock = time.perf_counter
    lat: list[float] = []
    starts: list[float] = []
    passes: list[float] = []
    attempted = failed = raised = 0
    problems: list[str] = []
    start = clock()
    refs = [(start, reference_ms())]
    i = 0
    with span("bench.measure"):
        while i < workload.min_passes or clock() - start < seconds:
            busy = 0.0
            for op in workload.pass_ops(i):
                if clock() - refs[-1][0] >= REF_EVERY_S:
                    refs.append((clock(), reference_ms()))
                attempted += 1
                t = clock()
                try:
                    with span("bench.op"):
                        out = op.run()
                    dt = clock() - t
                    problem = op.check(out)
                except Exception as exc:   # a failing operation must not end the run
                    failed += 1
                    raised += 1
                    problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    continue
                lat.append(dt)
                starts.append(t)
                busy += dt
                if problem:
                    failed += 1
                    problems.append(problem)
            passes.append(busy)
            i += 1
    refs.append((clock(), reference_ms()))
    return {"lat": lat, "starts": starts, "refs": refs, "passes": passes,
            "attempted": attempted, "failed": failed, "raised": raised,
            "problems": problems, "elapsed": clock() - start}


def setup_probe(workload_name: str, seed: int) -> float:
    """Set-up time of one fresh process, as measured inside it."""
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    import_package()
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_expected())
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install(spans.targets())
    try:
        span = tracer.span if tracer else _no_span
        with span("bench.setup"):
            workloads.warm_up()
            wl.setup()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        stats = measure(wl, args.seconds, span)
    finally:
        if tracer:
            tracer.uninstall()

    setups = [setup_s]
    if not args.trace:
        setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    fingerprint = workloads.digest(wl.records)
    want_fp = wl.expected.get("fingerprints", {}).get(wl.name)
    fp_checked = args.seed == workloads.DEFAULT_SEED and want_fp is not None
    gates = wl.gates()
    if fp_checked and fingerprint != want_fp:
        gates.append("fingerprint of the seeded outputs differs from the stored one")
    problems = stats["problems"] + gates
    correct = not stats["raised"] and not (wl.strict and stats["failed"]) and not gates

    detail = {
        "workload": wl.name, "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(args.seed), "setup_samples": setups,
        "ops": len(stats["lat"]), "passes": len(stats["passes"]),
        "elapsed_s": stats["elapsed"], "fingerprint": fingerprint,
        "fingerprint_checked": fp_checked, "problems": problems[:20],
        "end_to_end": end_to_end(wl, stats, setups),
    }
    if tracer:
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.ops_per_kref"] = detail["end_to_end"]["ops_per_kref"][:2]
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        out.write_text(json.dumps({"detail": detail, "fields": spans.FIELDS,
                                   "spans": tracer.spans}))
        detail["trace_file"] = str(out.relative_to(ROOT))
        listed = "per_layer"
    else:
        metrics = {name: (v, u) for name, (v, u, _) in detail["end_to_end"].items()}
        listed = "end_to_end"
    print_human(detail, metrics if tracer else None)
    print("BENCH_DETAIL " + json.dumps(detail))
    names = [m["name"] for m in SPEC[listed]]
    print(json.dumps({"correct": correct, "attempted": stats["attempted"],
                      "failed": stats["failed"],
                      "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                  for k in names}}))
    return 0


def end_to_end(wl, stats, setups) -> dict[str, tuple]:
    """Every end-to-end figure of a run: ``name -> (value, unit, note)``.

    Raw wall-clock figures carry the names used for each path; the
    reference-unit figures are the ones BENCHMARK.json gates on.
    """
    lat = stats["lat"]
    n = len(lat)
    ref = in_reference_units(stats["starts"], lat, stats["refs"])
    kind = "verdict" if wl.name.startswith("verdict") else "decode"
    rate = "verdicts_per_s" if kind == "verdict" else "trials_per_s"
    out = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh-process set-ups"),
        "ops_per_kref": (1e3 * n / sum(ref), "1/kref",
                         f"{n} ops over their time in reference-loop units"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "this process"),
        rate: (n / sum(lat), "1/s", f"{n} ops over their busy time"),
        f"{kind}_p50_ms": (statistics.median(lat) * 1e3, "ms", f"n={n}"),
        f"{kind}_p95_ms": (statistics.quantiles(lat, n=20)[-1] * 1e3 if n >= 200 else None,
                           "ms", f"n={n}" if n >= 200 else "not reported: n < 200"),
        "failed_frac": (stats["failed"] / stats["attempted"], "",
                        f"{stats['failed']} of {stats['attempted']} operations"),
    }
    if kind == "verdict":
        out["verdict_wall_s"] = (statistics.median(stats["passes"]), "s",
                                 f"whole ladder, median of {len(stats['passes'])} passes")
    return out


def print_human(detail, layers) -> None:
    p = detail["provenance"]
    print(f"== {detail['workload']}  seed={p['seed']}  seconds={detail['seconds']}  "
          f"trace={detail['trace']}")
    print(f"   cpu={p['cpu']}  nproc={p['nproc']}  python={p['python']}  "
          f"numpy={p['numpy']}  scipy={p['scipy']}  commit={p['commit']}")
    if layers is None:
        for name, (value, unit, note) in detail["end_to_end"].items():
            shown = "-" if value is None else f"{value:.6g}"
            print(f"   {name:<18}{shown:>14} {unit:<7}{note}")
    else:
        for name, (value, unit) in layers.items():
            print(f"   {name:<32}{value:>14.6g} {unit}")
    fp = "checked" if detail["fingerprint_checked"] else "not stored for this seed"
    print(f"   fingerprint {detail['fingerprint'][:16]}  ({fp})")
    for prob in detail["problems"]:
        print(f"   PROBLEM {prob}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    details, finals = {}, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            res = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(res.stdout + res.stderr, file=sys.stderr)
                return res.returncode or 1
            for ln in lines[:-1]:
                if ln.startswith("BENCH_DETAIL "):
                    details[(name, trace)] = json.loads(ln.split(" ", 1)[1])
                else:
                    print(ln)
            finals[(name, trace)] = json.loads(lines[-1])
    print("== summary")
    for name in WORKLOAD_NAMES:
        plain, traced = (details[(name, t)]["end_to_end"]["ops_per_kref"][0] for t in (0, 1))
        final = finals[(name, 0)]
        print(f"   {name:<16} correct={final['correct']}  failed={final['failed']}/"
              f"{final['attempted']}  tracing overhead {plain / traced - 1:+.1%} "
              f"(ops_per_kref {plain:.4g} untraced, {traced:.4g} traced)")
    for metric, name, low, high in SEED_TRACE:
        share = finals[(name, 1)]["metrics"][metric]["value"]
        verdict = "confirms" if low <= share <= high else "does not confirm"
        print(f"   {metric} on {name}: {share:.1%} {verdict} the seed trace "
              f"({low:.0%}-{high:.0%})")
    ok = all(f["correct"] for f in finals.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(f["attempted"] for f in finals.values()),
                      "failed": sum(f["failed"] for f in finals.values()),
                      "metrics": {f"{name}.{m}": v for (name, trace), f in finals.items()
                                  if not trace for m, v in f["metrics"].items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
