"""Check that the benchmark counts corrupted outputs as failed operations.

    python3 perfbench/selftest.py

Runs small versions of the workloads (a few seconds in all): clean
iterations must pass, and each corruption below must count as one failed
operation.  Exits non-zero on the first expectation that does not hold.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import run


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def failed_once(wl, label: str) -> bool:
    tally = run.Tally()
    tally.run(wl, label)
    print(f"   {label}: {tally.problems}")
    return (tally.attempted, tally.failed) == (1, 1)


def main() -> int:
    run.pin_threads(1)
    run.import_checkout()
    import numpy as np
    import workloads

    wl = workloads.SquareLowrank(seed=0, reference=None, m=150, p=20)
    wl.setup()
    tally = run.Tally()
    it = tally.run(wl, "clean")
    expect(it is not None and tally.failed == 0, "a clean library iteration passes its checks")

    wl.reference = {"s_used": (it.output.s_used + 1e-6).tolist()}
    expect(failed_once(wl, "s_used off its reference"), "an s_used 1e-6 off its reference fails")
    wl.reference = {"s_used": it.output.s_used.tolist()}

    emb = it.output
    wl.embed = lambda: dataclasses.replace(emb, Xt=1.01 * emb.Xt)
    expect(failed_once(wl, "scaled Xt"), "coordinates without unit mean square fail")
    wl.embed = lambda: dataclasses.replace(emb, Yt=emb.Yt + 1e-3)
    expect(failed_once(wl, "shifted Yt"), "coordinates without zero mean fail")

    def boom():
        raise FloatingPointError("injected")

    wl.embed = boom
    expect(failed_once(wl, "raises"), "an operation that raises fails")

    workdir = run.HERE / "_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = workloads.CliFullSpectrum(0, None, workdir, m=60, n=80, p=20, pairs=300)
        cli.setup()
        tally = run.Tally()
        for label in ("first", "second"):
            tally.run(cli, f"clean {label}")
        expect(tally.failed == 0, "clean CLI iterations pass, outputs byte-identical")

        iteration = cli.iteration

        def flip_a_digit():
            it = iteration()
            path = workdir / "dist.csv"
            text = path.read_text()
            pos = text.rindex(",") + 3
            path.write_text(text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:])
            return it

        cli.iteration = flip_a_digit
        expect(failed_once(cli, "one digit of dist.csv changed"),
               "a CLI output that differs from the first iteration's fails")
        cli.iteration = iteration

        (workdir / "empty").mkdir()
        fresh = workloads.CliFullSpectrum(0, None, workdir / "empty", m=60, n=80, p=20, pairs=300)
        expect(failed_once(fresh, "no input files"), "a non-zero CLI exit code fails")

        cli.first_hashes = None
        spec = cli.reference_values(cli.iteration())
        cli.first_hashes = None
        cli.reference = {**spec, "distance_sample": (np.array(spec["distance_sample"]) + 1e-7).tolist()}
        expect(failed_once(cli, "distances off their reference"),
               "CLI distances 1e-7 off their reference fail")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
