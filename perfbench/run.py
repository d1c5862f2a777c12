"""Benchmark of eotmaps: end-to-end timings, memory and quality, or a traced run.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload square-lowrank --seed 0 --seconds 25 --trace 0

The package is imported from the checkout's ``src/``; there is nothing to
build.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs
wrappers around the library's public functions (perfbench/tracing.py) and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A fuller record,
with every sample, the tail (maximum) and sample count of each timing, the
output checks and the machine, goes to ``perfbench/_results/``.

An operation is one iteration of a workload: the embedding and its
follow-up step.  It fails when it raises, when a child exits non-zero, or
when an output check fails (perfbench/workloads.py lists the checks).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("square-lowrank", "wide-sharp", "cli-full-spectrum")
# BLAS threads of this process.  The CLI workload's children get --threads 1,
# and its traced run calls the CLI in-process, so this process matches them.
THREADS = {"square-lowrank": 2, "wide-sharp": 2, "cli-full-spectrum": 1}
SETUPS = 5  # set-up repeats per run; setup_s is their median
UNITS = {"setup_s": "s", "embed_s": "s", "total_s": "s", "peak_mib": "MiB",
         "quality": "score", "success_frac": "frac"}
# Exact counts that must repeat across iterations and runs of one seed.
EXACT_COUNTS = ("transport.sweeps", "linalg.svd_k", "linalg.as_matrix_elems",
                "diffusion.pairs", "cli.bytes_read", "cli.bytes_written")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed loop; whole iterations run until it ends")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads(threads: int):
    """Must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def import_checkout():
    """Import eotmaps from the checkout's src/, never from an installed copy."""
    if not (SRC / "eotmaps" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC} holds no eotmaps package; run from a checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import eotmaps

    if Path(eotmaps.__file__).resolve().parent != (SRC / "eotmaps").resolve():
        raise SystemExit(f"error: eotmaps was imported from {eotmaps.__file__}, not {SRC}")


class Tally:
    """Operations attempted and failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, wl, label: str):
        """One checked iteration; returns it, or None when it failed."""
        self.attempted += 1
        try:
            it = wl.iteration()
            problems = wl.check(it)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            problems = ["raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
            it = None
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
            return None
        return it


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def stats(samples) -> dict:
    import numpy as np

    return {"value": float(np.median(samples)), "max": float(np.max(samples)),
            "n": len(samples), "samples": [float(s) for s in samples]}


def untraced(wl, seconds: float, tally: Tally) -> dict:
    import tracemalloc

    setup = [timed(wl.setup) for _ in range(SETUPS)]
    peak = None
    if not wl.children:
        # Memory pass, apart from the timed loop; it also warms the caches.
        tracemalloc.start()
        try:
            wl.probe()
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    its = []
    start = perf_counter()
    while not its or perf_counter() - start < seconds:
        it = tally.run(wl, f"iteration {tally.attempted}")
        if it is None:
            break
        its.append(it)
    return {
        "setup_s": stats(setup),
        "embed_s": stats([it.embed_s for it in its] or [0.0]),
        "total_s": stats([it.embed_s + it.followup_s for it in its] or [0.0]),
        "peak_mib": stats([peak] if peak is not None else [it.peak_mib for it in its] or [0.0]),
        "quality": stats([wl.quality(its)] if its else [0.0]),
        # Printed and recorded, not a bounded metric: kmeans' iteration count
        # varies with the data, so across seeds this alone spreads too widely.
        "followup_s": stats([it.followup_s for it in its] or [0.0]),
    }


def traced(wl, seconds: float, tally: Tally, tracer) -> dict:
    import tracemalloc

    import numpy as np
    from tracing import layer_metrics, median_metrics
    from workloads import MARGINAL_TOL, CliFullSpectrum, marginal_violation

    tracer.install()
    for _ in range(SETUPS):
        wl.setup()
    preset_s = [s.end - s.start for s in tracer.spans if s.label == "simulate.preset"]

    tracer.run = "memory"
    tracemalloc.start()
    try:
        wl.probe()
    finally:
        tracemalloc.stop()
    memory = [tracer.spans[i] for i in tracer.of_run("memory")]

    tracer.plans.clear()
    marginal = []
    plain, layers, embed_traced = [], [], []
    start = perf_counter()
    while not layers or perf_counter() - start < seconds:
        # Alternate untraced and traced iterations so drift hits both alike.
        tracer.uninstall()
        it = tally.run(wl, f"untraced iteration {len(plain)}")
        if it is None:
            break
        plain.append(it.embed_s)
        tracer.install()
        tracer.run = f"iteration {len(layers)}"
        it = tally.run(wl, f"traced {tracer.run}")
        tracer.uninstall()
        if it is None:
            break
        marginal += [marginal_violation(p) for p in tracer.plans]
        tracer.plans.clear()
        if max(marginal, default=0.0) > MARGINAL_TOL:
            tally.failed += 1
            tally.problems.append(f"traced {tracer.run}: relative marginal violation "
                                  f"{max(marginal):.3e} > {MARGINAL_TOL:g}")
            break
        embed_traced.append(it.embed_s)
        layers.append(layer_metrics(tracer, tracer.run))
        layers[-1].update({"cli.bytes_read": wl.bytes_read, "cli.bytes_written": wl.bytes_written})

    counts = {key: sorted({d[key] for d in layers}) for key in EXACT_COUNTS if layers}
    reference = (wl.reference or {}).get("counts", {})
    drift = {k: v for k, v in counts.items() if len(v) > 1 or (k in reference and v != [reference[k]])}
    if drift:
        print(f"warning: exact counts did not repeat: {drift} (reference {reference})",
              file=sys.stderr)

    out = median_metrics(layers)
    is_cli = isinstance(wl, CliFullSpectrum)
    out.update({
        "transport.plan_mib": max((s.mib for s in memory if s.label == "transport.transport_plan"), default=0.0),
        "linalg.svd_mib": max((s.mib for s in memory if s.label == "linalg.truncated_svd"), default=0.0),
        "transport.marginal_rel": max(marginal, default=0.0),
        "simulate.preset_s": float(np.median(preset_s)) if preset_s else 0.0,
        "cli.startup_s": wl.startup_s() if is_cli else 0.0,
        "trace.embed_untraced_s": float(np.median(plain)) if plain else 0.0,
        "trace.embed_traced_s": float(np.median(embed_traced)) if embed_traced else 0.0,
        "counts.repeat": 0.0 if drift else 1.0,
    })
    out["trace.overhead_s"] = out["trace.embed_traced_s"] - out["trace.embed_untraced_s"]
    return out


def machine(wl) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
                             timeout=10).stdout.strip()
        llc = int(llc) / 2**20 if llc.isdigit() and int(llc) > 0 else None
    except (OSError, subprocess.TimeoutExpired):
        llc = None
    m, n = wl.plan_shape()
    plan_mib = 8 * m * n / 2**20
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "plan_shape": [m, n],
        "plan_array_mib": plan_mib,
        "last_level_cache_mib": llc,
        # An m x n array that fits in the last-level cache: no bandwidth figure
        # is claimed from these runs.
        "cache_resident": llc is not None and plan_mib < llc,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads(THREADS[args.workload])
    import_checkout()
    import workloads
    from tracing import Tracer

    refs_path = HERE / "references.json"
    refs = json.loads(refs_path.read_text()) if refs_path.is_file() else {}
    reference = refs.get(args.workload, {}).get(str(args.seed))
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    tracer = Tracer()
    try:
        wl = workloads.make(args.workload, args.seed, reference, workdir, traced=bool(args.trace))
        if args.trace:
            results = traced(wl, args.seconds, tally, tracer)
        else:
            results = untraced(wl, args.seconds, tally)
        env = machine(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": float(v), "unit": layer_unit(k)} for k, v in sorted(results.items())}
    else:
        results["success_frac"] = stats([1.0 - tally.failed / tally.attempted])
        metrics = {k: {"value": results[k]["value"], "unit": unit} for k, unit in UNITS.items()}
    for key, value in metrics.items():
        tail = "" if args.trace else f"  (max {results[key]['max']:.6g}, n={results[key]['n']})"
        print(f"{args.workload:18s} {key:34s} {value['value']:>14.6g} {value['unit']}{tail}")
    if not args.trace:
        followup = results["followup_s"]
        print(f"{args.workload:18s} {'followup_s (no bound)':34s} {followup['value']:>14.6g} s"
              f"  (max {followup['max']:.6g}, n={followup['n']})")
        print(f"{args.workload:18s} {'failed_frac':34s} {tally.failed / tally.attempted:>14.6g} frac"
              f"  ({tally.failed} of {tally.attempted} operations)")
    print(f"{args.workload:18s} reference checks: {'on' if reference else 'none recorded for this seed'}")
    for problem in tally.problems:
        print(f"FAILED {problem}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quality_is": wl.quality_name, "machine": env,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "reference_checked": reference is not None,
              "results": results}
    out_dir = HERE / "_results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(out_dir / f"{stem}-spans.tsv")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_flops"):
        return "flop-computed"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"), ("us_per_pair", "us"),
                         ("_rel", "frac"), ("repeat", "flag"), ("bytes_read", "B"),
                         ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
