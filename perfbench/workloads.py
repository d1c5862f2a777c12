"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one caller: one embedding, then one
follow-up step (scoring, or the CLI's ``distances``), then the next
iteration.  Inputs come only from ``--seed``; the library receives the
generated arrays or files, never the seed.

square-lowrank      setting1 (param 8), m = n = 2000, p = 300, epsilon = median.
                    4 Sinkhorn sweeps but a full SVD for 5 triplets, so the
                    factorization dominates embed_s; knn dominates scoring.
wide-sharp          clustering (param 1), X 8000 x Y 500, p = 300, epsilon =
                    median/100 (median taken in set-up).  ~50 sweeps on a
                    swapped 500 x 8000 plan, so Sinkhorn dominates embed_s;
                    the spectrum is flat; scoring is kmeans + Rand, no knn.
cli-full-spectrum   ``eotmaps simulate`` setting2 (param 3), m = 1500,
                    n = 2000, p = 300, then ``embed --q 3`` and ``distances
                    --t 2`` over 50,000 pairs as child processes at
                    ``--threads 1``.  The only path that needs all m triplets,
                    CSV parse and format, and the diffusion pair loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import eotmaps.cli as cli
import eotmaps.embedding as embedding
import eotmaps.metrics as metrics
import eotmaps.simulate as simulate
import eotmaps.transport as transport

IDENTITY_TOL = 1e-6  # t = 0 coordinates: column mean 0, mean square 1
REFERENCE_TOL = 1e-8  # s_used, spectrum and distances against references.json
MARGINAL_TOL = 1e-10  # relative marginal violation of the stored plan
CHILD_TIMEOUT_S = 150.0
SAMPLE_EVERY = 500  # distances kept in references.json: every 500th pair


class Iteration(NamedTuple):
    embed_s: float
    followup_s: float
    quality: float
    peak_mib: float  # CLI children's peak RSS; 0 for the library workloads
    output: object


def t0_identity_problems(label: str, coords: np.ndarray, rows: int, q: int) -> list[str]:
    """Coordinates at t = 0 have zero-mean, unit-mean-square columns."""
    if coords.shape != (rows, q):
        return [f"{label} has shape {coords.shape}, expected {(rows, q)}"]
    if not np.isfinite(coords).all():
        return [f"{label} has non-finite entries"]
    problems = []
    mean = np.abs(coords.mean(axis=0)).max()
    msq = np.abs((coords**2).mean(axis=0) - 1.0).max()
    if mean > IDENTITY_TOL:
        problems.append(f"{label} column mean off 0 by {mean:.3e}")
    if msq > IDENTITY_TOL:
        problems.append(f"{label} column mean square off 1 by {msq:.3e}")
    return problems


def reference_problems(label: str, got, want) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label} has shape {got.shape}, reference {want.shape}"]
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if not (err <= REFERENCE_TOL).all():
        return [f"{label} differs from its reference by {np.nanmax(err):.3e}"]
    return []


def marginal_violation(plan) -> float:
    """max |row_sum/row_target - 1|, |col_sum/col_target - 1| of a stored plan."""
    m, n = plan.W.shape
    rows = plan.W.sum(axis=1) / np.sqrt(n / m) - 1.0
    cols = plan.W.sum(axis=0) / np.sqrt(m / n) - 1.0
    return float(max(np.abs(rows).max(), np.abs(cols).max()))


class LibraryWorkload:
    """Calls ``eot_eigenmaps`` and a scoring function in this process."""

    children = False  # peak memory from tracemalloc, not from child processes
    bytes_read = bytes_written = 0  # no files: the library gets arrays

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        self.reference = reference

    def embed(self):
        return embedding.eot_eigenmaps(self.X, self.Y, q=3, t=0, epsilon=self.epsilon)

    def iteration(self) -> Iteration:
        start = perf_counter()
        emb = self.embed()
        embed_s = perf_counter() - start
        pooled = np.vstack([emb.Xt, emb.Yt])
        start = perf_counter()
        quality = self.score(pooled)
        followup_s = perf_counter() - start
        return Iteration(embed_s, followup_s, quality, 0.0, emb)

    def check(self, it: Iteration) -> list[str]:
        emb = it.output
        problems = t0_identity_problems("Xt", emb.Xt, self.X.shape[0], 3)
        problems += t0_identity_problems("Yt", emb.Yt, self.Y.shape[0], 3)
        if self.reference is not None:
            problems += reference_problems("s_used", emb.s_used, self.reference["s_used"])
        return problems

    def reference_values(self, it: Iteration) -> dict:
        return {"s_used": it.output.s_used.tolist()}

    def quality(self, its: list[Iteration]) -> float:
        return float(np.median([it.quality for it in its]))

    def probe(self):
        """The call whose memory the memory pass measures."""
        self.embed()

    def plan_shape(self) -> tuple[int, int]:
        m, n = self.X.shape[0], self.Y.shape[0]
        return (min(m, n), max(m, n))


class SquareLowrank(LibraryWorkload):
    name = "square-lowrank"
    quality_name = "concordance"

    def __init__(self, seed, reference, m=2000, p=300):
        super().__init__(seed, reference)
        self.m, self.p = m, p

    def setup(self):
        pair = simulate.preset("setting1", self.m, self.m, self.p, self.seed, 8.0)
        self.X, self.Y = pair.X.values, pair.Y.values
        self.latent = pair.pooled_latent
        self.epsilon = "median"

    def score(self, pooled) -> float:
        return metrics.jaccard_concordance(pooled, self.latent, k=50)


class WideSharp(LibraryWorkload):
    name = "wide-sharp"
    quality_name = "rand_index"

    def __init__(self, seed, reference, m=8000, n=500, p=300):
        super().__init__(seed, reference)
        self.m, self.n, self.p = m, n, p

    def setup(self):
        pair = simulate.preset("clustering", self.m, self.n, self.p, self.seed, 1.0)
        self.X, self.Y = pair.X.values, pair.Y.values
        self.labels = pair.pooled_labels
        D2 = transport.squared_distance_matrix(self.X, self.Y)
        self.epsilon = transport.median_bandwidth(D2) / 100.0

    def score(self, pooled) -> float:
        predicted = metrics.kmeans(pooled, 6, seed=0)
        return metrics.rand_index(predicted, self.labels)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliFullSpectrum:
    """Runs ``eotmaps`` subcommands as child processes, or in-process when traced."""

    name = "cli-full-spectrum"
    quality_name = "concordance"
    children = True  # peak memory from the children's resource usage
    OUTPUTS = ("emb.csv", "spec.csv", "dist.csv")

    def __init__(self, seed, reference, workdir: Path, in_process=False,
                 m=1500, n=2000, p=300, pairs=50_000):
        self.seed, self.reference, self.workdir = seed, reference, workdir
        self.in_process = in_process
        self.m, self.n, self.p, self.pairs = m, n, p, pairs
        self.first_hashes = None
        self.concordance = 0.0
        self.bytes_read = self.bytes_written = 0

    def _file(self, name: str) -> str:
        return str(self.workdir / name)

    def _eotmaps(self, *argv: str) -> tuple[int, float, float]:
        """Run one subcommand; returns (exit code, wall seconds, peak RSS in MiB)."""
        if self.in_process:
            start = perf_counter()
            code = cli.main(argv)
            return code, perf_counter() - start, 0.0
        cmd = [sys.executable, "-m", "eotmaps", "--threads", "1", *argv]
        return run_child(cmd, self.workdir, f"{argv[0]}.log")

    def setup(self):
        config = {"schema_version": 1, "name": "setting2", "m": self.m, "n": self.n,
                  "p": self.p, "seed": self.seed, "param": 3.0}
        (self.workdir / "config.json").write_text(json.dumps(config))
        f = self._file
        code, _, _ = self._eotmaps("simulate", "--config", f("config.json"), "--out-x", f("x.csv"),
                                   "--out-y", f("y.csv"), "--out-latent", f("latent.csv"),
                                   "--out-labels", f("labels.txt"))
        if code != 0:
            raise RuntimeError(f"eotmaps simulate exited with {code}")
        rng = np.random.default_rng([self.seed, 0x9A125])
        kind = rng.integers(0, 3, self.pairs)
        sizes = np.array([[self.m, self.m], [self.n, self.n], [self.m, self.n]])
        i = (rng.random(self.pairs) * sizes[kind, 0]).astype(np.int64)
        j = (rng.random(self.pairs) * sizes[kind, 1]).astype(np.int64)
        names = np.array(["XX", "YY", "XY"])[kind]
        lines = [f"{k},{a},{b}" for k, a, b in zip(names, i, j)]
        (self.workdir / "pairs.csv").write_text("kind,i,j\n" + "\n".join(lines) + "\n")

    def _embed(self):
        f = self._file
        return self._eotmaps("embed", "--in-x", f("x.csv"), "--in-y", f("y.csv"), "--q", "3",
                             "--out-embedding", f("emb.csv"), "--out-spectrum", f("spec.csv"))

    def iteration(self) -> Iteration:
        for name in self.OUTPUTS:
            (self.workdir / name).unlink(missing_ok=True)
        code_e, embed_s, rss_e = self._embed()
        f = self._file
        code_d, dist_s, rss_d = self._eotmaps("distances", "--in-x", f("x.csv"), "--in-y", f("y.csv"),
                                              "--t", "2", "--pairs", f("pairs.csv"),
                                              "--out", f("dist.csv"))
        self.bytes_read = 2 * self._bytes("x.csv", "y.csv") + self._bytes("pairs.csv")
        self.bytes_written = self._bytes(*self.OUTPUTS)
        return Iteration(embed_s, dist_s, 0.0, max(rss_e, rss_d), (code_e, code_d))

    def _bytes(self, *names: str) -> int:
        paths = [self.workdir / name for name in names]
        return sum(p.stat().st_size for p in paths if p.exists())

    def check(self, it: Iteration) -> list[str]:
        codes = it.output
        if codes != (0, 0):
            return [f"exit codes (embed, distances) = {codes}, expected (0, 0)"]
        hashes = [_sha256(self.workdir / name) for name in self.OUTPUTS]
        if self.first_hashes is not None:
            return [f"{name} differs from the first iteration's"
                    for name, h, h0 in zip(self.OUTPUTS, hashes, self.first_hashes) if h != h0]
        self.first_hashes = hashes
        return self._check_contents()

    def _read_outputs(self):
        emb = np.loadtxt(self.workdir / "emb.csv", delimiter=",", skiprows=1, ndmin=2)
        spec = np.loadtxt(self.workdir / "spec.csv", delimiter=",", skiprows=1, ndmin=2)
        dist = np.loadtxt(self.workdir / "dist.csv", delimiter=",", skiprows=1, ndmin=2,
                          usecols=(1, 2, 3))
        return emb, spec[:, 1], dist[:, 2]

    def _check_contents(self) -> list[str]:
        """Checks on the first iteration's files; later ones must match them byte for byte."""
        emb, s, dist = self._read_outputs()
        which = emb[:, 0]
        problems = t0_identity_problems("X rows of emb.csv", emb[which == 0, 2:], self.m, 3)
        problems += t0_identity_problems("Y rows of emb.csv", emb[which == 1, 2:], self.n, 3)
        if s.shape != (min(self.m, self.n),):
            problems.append(f"spec.csv lists {s.shape[0]} values, expected {min(self.m, self.n)}")
        if dist.shape != (self.pairs,) or not (np.isfinite(dist).all() and (dist >= 0).all()):
            problems.append("dist.csv does not hold one finite distance >= 0 per pair")
        if self.reference is not None and not problems:
            problems += reference_problems("spectrum head", s[:6], self.reference["spectrum_head"])
            problems += reference_problems("distance sample", dist[::SAMPLE_EVERY],
                                           self.reference["distance_sample"])
        if not problems:
            latent = np.loadtxt(self.workdir / "latent.csv", delimiter=",", ndmin=2)
            self.concordance = metrics.jaccard_concordance(emb[:, 2:], latent, k=50)
        return problems

    def quality(self, its: list[Iteration]) -> float:
        """Concordance of the first iteration's embedding file; later files are identical."""
        return self.concordance

    def probe(self):
        self._embed()

    def plan_shape(self) -> tuple[int, int]:
        return (min(self.m, self.n), max(self.m, self.n))

    def reference_values(self, it: Iteration) -> dict:
        _, s, dist = self._read_outputs()
        return {"spectrum_head": s[:6].tolist(), "distance_sample": dist[::SAMPLE_EVERY].tolist()}

    def startup_s(self, repeats: int = 5) -> float:
        """Median wall time of a child that only imports numpy and eotmaps.cli."""
        cmd = [sys.executable, "-c", "import numpy, eotmaps.cli"]
        return float(np.median([run_child(cmd, self.workdir, "startup.log")[1]
                                for _ in range(repeats)]))


def run_child(cmd: list[str], cwd: Path, log_name: str) -> tuple[int, float, float]:
    """Run a child to completion; returns (exit code, wall seconds, peak RSS in MiB).

    Output goes to a log file in ``cwd``, so no pipe can fill up; a child that
    outlives CHILD_TIMEOUT_S is killed and reported by its exit code.
    """
    with open(cwd / log_name, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write((cwd / log_name).read_text(errors="replace")[-2000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def make(name: str, seed: int, reference: dict | None, workdir: Path, traced: bool):
    if name == "square-lowrank":
        return SquareLowrank(seed, reference)
    if name == "wide-sharp":
        return WideSharp(seed, reference)
    return CliFullSpectrum(seed, reference, workdir, in_process=traced)

