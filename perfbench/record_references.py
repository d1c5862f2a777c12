"""Record the reference outputs and exact counts that run.py checks against.

    python3 perfbench/record_references.py --workload wide-sharp --seeds 0 1 2

For each seed it runs one untraced iteration (s_used, or the CLI's spectrum
head and a sample of its distances) and one traced iteration (the exact
counts), and merges them into perfbench/references.json.  Run it on the
commit whose outputs are the reference; seeds without an entry are still
checked, but not against a reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    run.pin_threads(run.THREADS[args.workload])
    run.import_checkout()
    import workloads
    from tracing import Tracer, layer_metrics

    path = run.HERE / "references.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    for seed in args.seeds:
        workdir = run.HERE / "_work" / f"record-{args.workload}-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.make(args.workload, seed, None, workdir, traced=False)
            wl.setup()
            it = wl.iteration()
            problems = wl.check(it)
            if problems:
                raise SystemExit(f"seed {seed}: outputs fail their checks: {problems}")
            entry = wl.reference_values(it)
            if wl.children:
                wl.in_process = True  # the traced run calls the CLI in-process
            tracer = Tracer(run="counts")
            tracer.install()
            try:
                wl.iteration()
            finally:
                tracer.uninstall()
            layers = layer_metrics(tracer, "counts")
            layers.update({"cli.bytes_read": wl.bytes_read, "cli.bytes_written": wl.bytes_written})
            entry["counts"] = {key: layers[key] for key in run.EXACT_COUNTS}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        refs.setdefault(args.workload, {})[str(seed)] = entry
        print(f"{args.workload} seed {seed}: {entry['counts']}", file=sys.stderr)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
