"""Command-line interface: simulate, embed, evaluate, distances.

File conventions
----------------
* data/latent matrices: headerless CSV, one row per point, %.17g formatting
  (full float64 round trip);
* labels: one integer per line;
* embeddings: CSV with header ``dataset,point_index,coord_1..coord_q``;
  dataset is 0 for the first cloud and 1 for the second, point_index counts
  within each cloud, X rows first;
* spectra: CSV with header ``k,s`` (k is 1-based);
* pair lists for ``distances``: CSV with header ``kind,i,j`` and kinds
  XX, YY, XY (0-based indices into the respective clouds);
* evaluate writes JSON ``{"metric": ..., "value": ..., "params": {...}}``.

Exit codes: 0 success; 2 invalid input (bad flags, malformed files or
config, shape mismatches, a transport plan, or the SVD or Gram
eigendecomposition of one, too large for memory); 3 numerical failure
(non-convergence, an unconverged plan, degenerate results, non-finite SVD
factors, a failed eigendecomposition of the Gram matrix).

Heavy imports happen inside the command handlers so that ``--threads`` can
cap the BLAS thread pools before numpy loads; only the exception classes of
``errors``, which import nothing, load up front.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .errors import InputError, NumericalError

SCHEMA_VERSION = 1
_CONFIG_REQUIRED = {"schema_version", "name", "m", "n", "p", "seed"}
_CONFIG_OPTIONAL = {"param"}
_METRICS = ("concordance", "rand", "db", "silhouette", "purity")
_FLOAT_FMT = "%.17g"


def _apply_threads(threads: int | None):
    if threads is None:
        return
    if "numpy" in sys.modules:
        print("warning: numpy already loaded; --threads may have no effect", file=sys.stderr)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(threads)


def _read_matrix(path: str, dtype=float, skiprows: int = 0):
    """The CSV matrix at ``path`` after ``skiprows`` header lines; a float one goes
    through ``linalg.as_matrix``.  numpy's warnings on blank lines (skipped) and on a
    file with no data rows are silenced: the "is empty" error line reports that file."""
    import numpy as np

    from . import linalg

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
            arr = np.loadtxt(path, dtype=dtype, delimiter=",", ndmin=2, skiprows=skiprows)
    except OSError:
        raise InputError(f"cannot read {path}")
    except ValueError as exc:
        raise InputError(f"{path} is not a CSV matrix: {exc}")
    if arr.size == 0:
        raise InputError(f"{path} is empty")
    return linalg.as_matrix(arr, path) if dtype is float else arr


def _read_text(path: str, read, subject: str = ""):
    """``read(fh)`` of the text file at ``path``; InputError if it cannot be opened or decoded."""
    try:
        with open(path) as fh:
            return read(fh)
    except OSError:
        raise InputError(f"cannot read {subject}{path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {subject}{path}: {exc}") from None


def _create(path: str):
    """``path`` opened for writing text, else InputError."""
    try:
        return open(path, "w")
    except OSError:
        raise InputError(f"cannot write {path}") from None


def _write_matrix(path: str, arr, fmt=_FLOAT_FMT, header: str = ""):
    import numpy as np

    try:
        np.savetxt(path, arr, delimiter=",", fmt=fmt, header=header, comments="")
    except OSError:
        raise InputError(f"cannot write {path}") from None


def _read_labels(path: str):
    import numpy as np

    from . import linalg

    try:  # int64 first: read through float64, integers above 2^53 would merge
        flat = _read_matrix(path, np.int64).ravel()
    except InputError:  # integer-valued floats such as 1.0, and the float read's errors
        flat = _read_matrix(path).ravel()
    return linalg.as_labels(flat, flat.size, f"labels in {path}")


def _read_embedding(path: str):
    header = _read_text(path, lambda fh: fh.readline().strip())
    if not header.startswith("dataset,point_index,coord_1"):
        raise InputError(f"{path} does not look like an embedding file (bad header)")
    arr = _read_matrix(path, skiprows=1)
    if arr.shape[1] < 3:
        raise InputError(f"{path} must have at least one coordinate column")
    return arr[:, 2:]


def _load_config(path: str) -> dict:
    try:
        cfg = _read_text(path, json.load, "config ")
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_REQUIRED - _CONFIG_OPTIONAL
    if unknown:
        raise InputError(f"config has unknown field(s): {', '.join(sorted(unknown))}")
    missing = _CONFIG_REQUIRED - set(cfg)
    if missing:
        raise InputError(f"config is missing field(s): {', '.join(sorted(missing))}")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema_version {cfg['schema_version']!r} (expected {SCHEMA_VERSION})"
        )
    return cfg


def _parse_flag(text: str, flag: str, keyword: str, cast, kind: str):
    """``keyword`` as given, else ``text`` read by ``cast`` (``kind`` names it in the error)."""
    if text == keyword:
        return keyword
    try:
        return cast(text)
    except ValueError:
        raise InputError(f'{flag} must be {kind} or "{keyword}", got {text!r}')


def cmd_simulate(args) -> int:
    from . import simulate

    cfg = _load_config(args.config)
    pair = simulate.preset(
        cfg["name"], cfg["m"], cfg["n"], cfg["p"], cfg["seed"], cfg.get("param", 1.0)
    )
    _write_matrix(args.out_x, pair.X.values)
    _write_matrix(args.out_y, pair.Y.values)
    _write_matrix(args.out_latent, pair.pooled_latent)
    _write_matrix(args.out_labels, pair.pooled_labels, fmt="%d")
    kind = "class" if pair.latent_x.labels is not None else "dataset-indicator"
    print(
        "simulated {}: X {}x{}, Y {}x{}, labels={}".format(
            pair.name, *pair.X.values.shape, *pair.Y.values.shape, kind
        ),
        file=sys.stderr,
    )
    return 0


def _plan(args):
    """Check the plan flags now; the function returned reads X and Y and solves their plan."""
    from . import linalg, transport

    epsilon = _parse_flag(args.epsilon, "--epsilon", "median", float, "a number")
    if epsilon != "median":
        linalg.check_real(epsilon, "epsilon", 0, strict=True)
    linalg.check_real(args.tol, "tol", 0, strict=True)
    linalg.check_int(args.max_iter, "max_iter", 1)
    return lambda: transport.transport_plan(_read_matrix(args.in_x), _read_matrix(args.in_y),
                                            epsilon=epsilon, tol=args.tol, max_iter=args.max_iter)


def cmd_embed(args) -> int:
    import numpy as np

    from . import embedding, linalg

    q = _parse_flag(args.q, "--q", "auto", int, "an integer")
    embedding._check_q(q)  # the upper bound needs the plan's shape
    linalg.check_int(args.t, "t", 0)
    plan = _plan(args)()
    # the model first: an unconverged plan fails here, before the full spectrum,
    # and its leading q + 1 vectors are the block the spectrum deflates
    model = embedding.spectral_model(plan, k=embedding.triplet_count(q, min(plan.shape)))
    emb = embedding.embed_from_model(model, q=q, t=args.t)
    s = linalg.singular_values(plan.W, block=(model.U[:, : emb.q + 1], model.V[:, : emb.q + 1]))
    m, n = plan.shape
    table = np.c_[np.repeat([0, 1], (m, n)), np.r_[:m, :n], np.r_[emb.Xt, emb.Yt]]
    header = "dataset,point_index," + ",".join(f"coord_{i}" for i in range(1, emb.q + 1))
    _write_matrix(args.out_embedding, table, ["%d", "%d"] + [_FLOAT_FMT] * emb.q, header)
    _write_matrix(args.out_spectrum, np.c_[1 : s.size + 1, s], ["%d", _FLOAT_FMT], "k,s")
    print(
        f"embedded with q={emb.q}, t={emb.t}, epsilon={plan.epsilon:.17g}, "
        f"{plan.iterations} sweeps",
        file=sys.stderr,
    )
    return 0


def cmd_evaluate(args) -> int:
    import numpy as np

    from . import metrics

    coords = _read_embedding(args.embedding)
    params: dict = {}
    if args.metric == "concordance":
        if not args.latent:
            raise InputError("metric 'concordance' needs --latent")
        latent = _read_matrix(args.latent)
        value = metrics.jaccard_concordance(coords, latent, k=args.k)
        params["k"] = args.k
    else:
        if not args.labels:
            raise InputError(f"metric {args.metric!r} needs --labels")
        labels = _read_labels(args.labels)
        if labels.shape[0] != coords.shape[0]:
            raise InputError(
                f"labels ({labels.shape[0]}) do not match embedding rows ({coords.shape[0]})"
            )
        if args.metric == "rand":
            clusters = args.clusters if args.clusters is not None else int(np.unique(labels).size)
            if clusters < 2:
                raise InputError("--clusters must be at least 2")
            predicted = metrics.kmeans(coords, clusters, seed=args.seed)
            value = metrics.rand_index(predicted, labels)
            params.update(clusters=clusters, seed=args.seed)
        elif args.metric == "db":
            value = metrics.davies_bouldin(coords, labels)
        elif args.metric == "silhouette":
            value = metrics.silhouette_mean(coords, labels)
        else:
            value = metrics.neighbor_purity(coords, labels, k=args.k)
            params["k"] = args.k

    payload = json.dumps({"metric": args.metric, "value": value, "params": params}, sort_keys=True)
    if args.out == "-":
        print(payload)
    else:
        with _create(args.out) as fh:
            fh.write(payload + "\n")
    return 0


def _read_pairs(path: str):
    """The pair list at ``path`` as arrays ``(kinds, i, j)``, one entry per data row."""
    import numpy as np

    header = _read_text(path, lambda fh: fh.readline())
    if [c.strip() for c in header.split(",")] != ["kind", "i", "j"]:
        raise InputError(f"{path} must start with header 'kind,i,j'")
    rows = _read_matrix(path, str, skiprows=1)
    if rows.shape[1] != 3:
        raise InputError(f"{path}: rows must have 3 columns 'kind,i,j', got {rows.shape[1]}")
    kinds = np.char.strip(rows[:, 0])
    unknown = ~np.isin(kinds, ("XX", "YY", "XY"))
    if unknown.any():
        row = unknown.argmax()
        raise InputError(f"{path}: row {row + 1}: kind must be XX, YY or XY, got {str(kinds[row])!r}")
    try:
        return (kinds, *rows[:, 1:].astype(np.int64).T)
    except (ValueError, OverflowError):  # OverflowError: beyond the int64 range
        raise InputError(f"{path}: indices must be integers (int64)") from None


def cmd_distances(args) -> int:
    import numpy as np

    from . import diffusion, linalg

    linalg.check_int(args.t, "t", 1)
    solve = _plan(args)
    kinds, i, j = _read_pairs(args.pairs)
    ctx = diffusion.DiffusionContext(plan=solve(), t=args.t)
    values = np.empty(kinds.size)
    for kind in ("XX", "YY", "XY"):
        rows = kinds == kind
        values[rows] = diffusion.diffusion_distance(ctx, kind, i[rows], j[rows])
    # a plain loop: np.savetxt over a 50,000-pair record array took 0.17 s, the loop 0.04 s
    with _create(args.out) as fh:
        fh.write("kind,i,j,distance\n")
        for kind, a, b, value in zip(kinds.tolist(), i.tolist(), j.tolist(), values.tolist()):
            fh.write(f"{kind},{a},{b},{_FLOAT_FMT % value}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eotmaps",
        description="Joint spectral embedding of two point clouds via entropic "
        "optimal-transport plans.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="best-effort cap on BLAS threads (set before numpy loads)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic two-sample dataset")
    p.add_argument("--config", required=True, help="JSON config (schema_version, name, m, n, p, seed[, param])")
    p.add_argument("--out-x", required=True)
    p.add_argument("--out-y", required=True)
    p.add_argument("--out-latent", required=True, help="pooled latent matrix, X rows first")
    p.add_argument(
        "--out-labels",
        required=True,
        help="pooled labels: class labels for the clustering preset, dataset indicator otherwise",
    )
    p.set_defaults(handler=cmd_simulate)

    plan_args = argparse.ArgumentParser(add_help=False)
    plan_args.add_argument("--in-x", required=True)
    plan_args.add_argument("--in-y", required=True)
    plan_args.add_argument("--epsilon", default="median", help='kernel bandwidth or "median" (default)')
    plan_args.add_argument("--tol", type=float, default=1e-10)
    plan_args.add_argument("--max-iter", type=int, default=10000)

    p = sub.add_parser("embed", parents=[plan_args], help="compute the joint transport embedding")
    p.add_argument("--q", default="auto", help='embedding dimension or "auto" (default, largest gap, q <= 10)')
    p.add_argument("--t", type=int, default=0, help="diffusion time (default 0)")
    p.add_argument("--out-embedding", required=True)
    p.add_argument("--out-spectrum", required=True)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("evaluate", help="score an embedding file")
    p.add_argument("--embedding", required=True)
    p.add_argument("--metric", required=True, choices=_METRICS)
    p.add_argument("--latent", default=None, help="latent matrix (concordance)")
    p.add_argument("--labels", default=None, help="labels file (rand/db/silhouette/purity)")
    p.add_argument("--k", type=int, default=50, help="neighborhood size (default 50)")
    p.add_argument("--clusters", type=int, default=None, help="kmeans clusters for rand")
    p.add_argument("--seed", type=int, default=0, help="kmeans seed for rand")
    p.add_argument("--out", default="-", help="output JSON path, or - for stdout")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser(
        "distances", parents=[plan_args], help="diffusion distances for listed vertex pairs"
    )
    p.add_argument("--t", type=int, required=True, help="diffusion time (positive integer)")
    p.add_argument("--pairs", required=True, help="CSV with header kind,i,j")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_distances)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    _apply_threads(args.threads)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
