import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "eotmaps", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def write_config(path, **overrides):
    cfg = dict(schema_version=1, name="setting1", m=8, n=10, p=6, seed=3)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulated dataset plus its embedding, shared by the read-only tests."""
    d = tmp_path_factory.mktemp("cli")
    write_config(d / "config.json")
    r = run_cli(
        "simulate", "--config", d / "config.json",
        "--out-x", d / "X.csv", "--out-y", d / "Y.csv",
        "--out-latent", d / "latent.csv", "--out-labels", d / "labels.txt",
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "embed", "--in-x", d / "X.csv", "--in-y", d / "Y.csv", "--q", 2,
        "--out-embedding", d / "emb.csv", "--out-spectrum", d / "spec.csv",
    )
    assert r.returncode == 0, r.stderr
    return d


def test_simulate_outputs(workdir):
    X = np.loadtxt(workdir / "X.csv", delimiter=",")
    Y = np.loadtxt(workdir / "Y.csv", delimiter=",")
    latent = np.loadtxt(workdir / "latent.csv", delimiter=",")
    labels = np.loadtxt(workdir / "labels.txt", dtype=int)
    assert X.shape == (8, 6) and Y.shape == (10, 6)
    assert latent.shape == (18, 3)
    np.testing.assert_array_equal(labels, [0] * 8 + [1] * 10)


def test_simulate_reports_to_stderr(tmp_path):
    write_config(tmp_path / "c.json")
    r = run_cli(
        "simulate", "--config", tmp_path / "c.json",
        "--out-x", tmp_path / "X.csv", "--out-y", tmp_path / "Y.csv",
        "--out-latent", tmp_path / "L.csv", "--out-labels", tmp_path / "l.txt",
    )
    assert r.returncode == 0
    assert "setting1" in r.stderr and "8x6" in r.stderr


def test_simulate_reproducible_checksums(tmp_path, workdir):
    write_config(tmp_path / "c.json")
    r = run_cli(
        "simulate", "--config", tmp_path / "c.json",
        "--out-x", tmp_path / "X.csv", "--out-y", tmp_path / "Y.csv",
        "--out-latent", tmp_path / "latent.csv", "--out-labels", tmp_path / "labels.txt",
    )
    assert r.returncode == 0
    for name in ("X.csv", "Y.csv", "latent.csv", "labels.txt"):
        assert sha256(tmp_path / name) == sha256(workdir / name)


def test_simulate_clustering_labels_are_classes(tmp_path):
    write_config(tmp_path / "c.json", name="clustering", m=12, n=15, p=8, param=3.0)
    r = run_cli(
        "simulate", "--config", tmp_path / "c.json",
        "--out-x", tmp_path / "X.csv", "--out-y", tmp_path / "Y.csv",
        "--out-latent", tmp_path / "L.csv", "--out-labels", tmp_path / "l.txt",
    )
    assert r.returncode == 0
    assert "class" in r.stderr
    labels = np.loadtxt(tmp_path / "l.txt", dtype=int)
    assert labels.shape == (27,)
    assert set(labels.tolist()) <= set(range(6))


def test_cli_import_leaves_numpy_unloaded():
    # --threads only takes effect if numpy loads after it is applied.
    r = subprocess.run(
        [sys.executable, "-c", "import sys, eotmaps.cli; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize(
    "mutation,needle",
    [
        (dict(extra=1), "unknown field"),
        (dict(schema_version=2), "schema_version"),
        (dict(name="nope"), "nope"),
        (dict(m="eight"), "m must be an integer"),
        (dict(param="big"), "param"),
        (dict(seed="x"), "seed must be an integer"),
        (dict(p=True), "p must be an integer"),
        (dict(n=2.5), "n must be an integer"),
        (dict(m=-1), "m must be >= 1"),
        (dict(name=5), "unknown preset 5"),
    ],
)
def test_simulate_config_errors(tmp_path, mutation, needle):
    write_config(tmp_path / "c.json", **mutation)
    r = run_cli(
        "simulate", "--config", tmp_path / "c.json",
        "--out-x", tmp_path / "X.csv", "--out-y", tmp_path / "Y.csv",
        "--out-latent", tmp_path / "L.csv", "--out-labels", tmp_path / "l.txt",
    )
    assert r.returncode == 2
    assert needle in r.stderr


def test_simulate_missing_field_and_bad_json(tmp_path):
    (tmp_path / "missing.json").write_text(json.dumps({"schema_version": 1, "name": "setting1"}))
    r = run_cli(
        "simulate", "--config", tmp_path / "missing.json",
        "--out-x", tmp_path / "X.csv", "--out-y", tmp_path / "Y.csv",
        "--out-latent", tmp_path / "L.csv", "--out-labels", tmp_path / "l.txt",
    )
    assert r.returncode == 2 and "missing" in r.stderr

    (tmp_path / "broken.json").write_text("{not json")
    r = run_cli(
        "simulate", "--config", tmp_path / "broken.json",
        "--out-x", tmp_path / "X.csv", "--out-y", tmp_path / "Y.csv",
        "--out-latent", tmp_path / "L.csv", "--out-labels", tmp_path / "l.txt",
    )
    assert r.returncode == 2 and "JSON" in r.stderr


def test_embed_output_files(workdir):
    with open(workdir / "emb.csv") as fh:
        header = fh.readline().strip()
    assert header == "dataset,point_index,coord_1,coord_2"
    table = np.loadtxt(workdir / "emb.csv", delimiter=",", skiprows=1)
    assert table.shape == (18, 4)
    np.testing.assert_array_equal(table[:8, 0], 0)
    np.testing.assert_array_equal(table[8:, 0], 1)
    np.testing.assert_array_equal(table[:8, 1], np.arange(8))
    np.testing.assert_array_equal(table[8:, 1], np.arange(10))

    with open(workdir / "spec.csv") as fh:
        assert fh.readline().strip() == "k,s"
    spec = np.loadtxt(workdir / "spec.csv", delimiter=",", skiprows=1)
    assert spec.shape == (8, 2)
    np.testing.assert_array_equal(spec[:, 0], np.arange(1, 9))
    assert spec[0, 1] == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(spec[:, 1]) <= 1e-12)


def test_embed_matches_library(workdir):
    from eotmaps import eot_eigenmaps

    X = np.loadtxt(workdir / "X.csv", delimiter=",")
    Y = np.loadtxt(workdir / "Y.csv", delimiter=",")
    emb = eot_eigenmaps(X, Y, q=2, t=0)
    table = np.loadtxt(workdir / "emb.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:8, 2:], emb.Xt)
    np.testing.assert_array_equal(table[8:, 2:], emb.Yt)


def test_embed_auto_matches_library(tmp_path, mid):
    # the CLI asks for the library's triplet count (12 for "auto" on this
    # rank-150 plan), so it picks q from the same values and writes the
    # library's coordinates bit for bit
    from eotmaps import eot_eigenmaps

    r = run_cli(
        "embed", "--in-x", mid / "X.csv", "--in-y", mid / "Y.csv", "--t", 1,
        "--out-embedding", tmp_path / "emb.csv", "--out-spectrum", tmp_path / "spec.csv",
    )
    assert r.returncode == 0, r.stderr
    X = np.loadtxt(mid / "X.csv", delimiter=",")
    Y = np.loadtxt(mid / "Y.csv", delimiter=",")
    emb = eot_eigenmaps(X, Y, q="auto", t=1)
    assert f"q={emb.q}," in r.stderr
    table = np.loadtxt(tmp_path / "emb.csv", delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(table[:150, 2:], emb.Xt)
    np.testing.assert_array_equal(table[150:, 2:], emb.Yt)


def test_embed_reproducible(tmp_path, workdir):
    r = run_cli(
        "embed", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv", "--q", 2,
        "--out-embedding", tmp_path / "emb.csv", "--out-spectrum", tmp_path / "spec.csv",
    )
    assert r.returncode == 0
    assert sha256(tmp_path / "emb.csv") == sha256(workdir / "emb.csv")
    assert sha256(tmp_path / "spec.csv") == sha256(workdir / "spec.csv")


def test_embed_auto_dimension_reported(tmp_path, workdir):
    r = run_cli(
        "embed", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--out-embedding", tmp_path / "emb.csv", "--out-spectrum", tmp_path / "spec.csv",
    )
    assert r.returncode == 0
    assert "q=" in r.stderr and "sweeps" in r.stderr

    # the CLI's default q is the library's "auto", on the same inputs
    from eotmaps import eot_eigenmaps

    X = np.loadtxt(workdir / "X.csv", delimiter=",", ndmin=2)
    Y = np.loadtxt(workdir / "Y.csv", delimiter=",", ndmin=2)
    lib = eot_eigenmaps(X, Y, q="auto")
    emb = np.loadtxt(tmp_path / "emb.csv", delimiter=",", skiprows=1, ndmin=2)
    assert f"q={lib.q}," in r.stderr
    np.testing.assert_allclose(emb[:, 2:], np.vstack([lib.Xt, lib.Yt]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["setting1", "setting2", "clustering"])
def test_embed_default_writes_few_coordinates(tmp_path, name):
    write_config(tmp_path / "c.json", name=name, m=60, n=80, p=20)
    r = run_cli(
        "simulate", "--config", tmp_path / "c.json",
        "--out-x", tmp_path / "X.csv", "--out-y", tmp_path / "Y.csv",
        "--out-latent", tmp_path / "L.csv", "--out-labels", tmp_path / "l.txt",
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "embed", "--in-x", tmp_path / "X.csv", "--in-y", tmp_path / "Y.csv",
        "--out-embedding", tmp_path / "emb.csv", "--out-spectrum", tmp_path / "spec.csv",
    )
    assert r.returncode == 0, r.stderr
    header = (tmp_path / "emb.csv").read_text().split("\n", 1)[0].split(",")
    assert 1 <= sum(col.startswith("coord_") for col in header) <= 10


def test_embed_input_errors(tmp_path, workdir):
    r = run_cli(
        "embed", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv", "--q", 99,
        "--out-embedding", tmp_path / "e.csv", "--out-spectrum", tmp_path / "s.csv",
    )
    assert r.returncode == 2

    r = run_cli(
        "embed", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--epsilon", "garbage",
        "--out-embedding", tmp_path / "e.csv", "--out-spectrum", tmp_path / "s.csv",
    )
    assert r.returncode == 2 and "epsilon" in r.stderr

    r = run_cli(
        "embed", "--in-x", tmp_path / "does-not-exist.csv", "--in-y", workdir / "Y.csv",
        "--out-embedding", tmp_path / "e.csv", "--out-spectrum", tmp_path / "s.csv",
    )
    assert r.returncode == 2 and "cannot read" in r.stderr

    (tmp_path / "text.csv").write_text("a,b\nc,d\n")
    r = run_cli(
        "embed", "--in-x", tmp_path / "text.csv", "--in-y", workdir / "Y.csv",
        "--out-embedding", tmp_path / "e.csv", "--out-spectrum", tmp_path / "s.csv",
    )
    assert r.returncode == 2

    (tmp_path / "empty.csv").write_text("")
    r = run_cli(
        "embed", "--in-x", tmp_path / "empty.csv", "--in-y", workdir / "Y.csv",
        "--out-embedding", tmp_path / "e.csv", "--out-spectrum", tmp_path / "s.csv",
    )
    assert r.returncode == 2
    assert r.stderr == f"error: {tmp_path / 'empty.csv'} is empty\n"  # no loadtxt warning


@pytest.mark.parametrize("q", ["auto", "1"])
def test_embed_single_point_cloud_exits_2(tmp_path, q):
    (tmp_path / "x.csv").write_text("1,2\n")
    (tmp_path / "y.csv").write_text("1,2\n3,4\n5,1\n")
    r = run_cli(
        "embed", "--in-x", tmp_path / "x.csv", "--in-y", tmp_path / "y.csv", "--q", q,
        "--out-embedding", tmp_path / "e.csv", "--out-spectrum", tmp_path / "s.csv",
    )
    assert r.returncode == 2
    assert r.stderr == "error: a plan of rank min(m, n) = 1 has no non-trivial coordinate; each cloud needs at least two points\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_input_exits_2(tmp_path, workdir, value):
    X = (workdir / "X.csv").read_text().splitlines()
    X[1] = ",".join([value] + X[1].split(",")[1:])
    (tmp_path / "X.csv").write_text("\n".join(X) + "\n")
    r = run_cli(
        "embed", "--in-x", tmp_path / "X.csv", "--in-y", workdir / "Y.csv",
        "--out-embedding", tmp_path / "e.csv", "--out-spectrum", tmp_path / "s.csv",
    )
    assert r.returncode == 2
    assert f"{tmp_path / 'X.csv'} contains non-finite entries" in r.stderr


def test_embed_nonconvergence_exits_3(tmp_path, workdir):
    r = run_cli(
        "embed", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--tol", "1e-15", "--max-iter", 1,
        "--out-embedding", tmp_path / "e.csv", "--out-spectrum", tmp_path / "s.csv",
    )
    assert r.returncode == 3
    assert "numerical failure" in r.stderr


def test_embed_out_of_memory_exits_2(tmp_path, workdir, monkeypatch, capsys):
    import eotmaps.transport as transport
    from eotmaps import cli

    def exhausted(A, B):
        raise MemoryError

    monkeypatch.setattr(transport, "squared_distance_matrix", exhausted)
    code = cli.main([
        "embed", "--in-x", str(workdir / "X.csv"), "--in-y", str(workdir / "Y.csv"),
        "--out-embedding", str(tmp_path / "e.csv"), "--out-spectrum", str(tmp_path / "s.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "8 x 10 transport plan does not fit in memory" in err and "MiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["embed", "distances"])
def test_dense_svd_out_of_memory_exits_2(tmp_path, workdir, monkeypatch, capsys, command):
    from eotmaps import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    # the CLI factors the 8 x 10 plan with all 8 triplets: the dense path
    monkeypatch.setattr(np.linalg, "svd", exhausted)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("kind,i,j\nXX,0,1\n")
    outputs = {
        "embed": ["--out-embedding", str(tmp_path / "e.csv"), "--out-spectrum", str(tmp_path / "s.csv")],
        "distances": ["--t", "1", "--pairs", str(pairs), "--out", str(tmp_path / "d.csv")],
    }[command]
    code = cli.main([
        command, "--in-x", str(workdir / "X.csv"), "--in-y", str(workdir / "Y.csv"), *outputs,
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "dense SVD of a 8 x 10 matrix does not fit in memory" in err and "MiB" in err
    assert "Traceback" not in err


def test_gram_out_of_memory_exits_2(tmp_path, workdir, monkeypatch, capsys):
    from eotmaps import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    # distances at t >= 2 take the plan's coordinates from eigh(W W^T)
    monkeypatch.setattr(np.linalg, "eigh", exhausted)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("kind,i,j\nXX,0,1\n")
    code = cli.main([
        "distances", "--in-x", str(workdir / "X.csv"), "--in-y", str(workdir / "Y.csv"),
        "--t", "2", "--pairs", str(pairs), "--out", str(tmp_path / "d.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "Gram eigendecomposition of a 8 x 10 matrix does not fit in memory" in err
    assert "MiB" in err
    assert "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("command,t", [("embed", "-1"), ("distances", "0")])
def test_diffusion_time_checked_before_the_plan(tmp_path, workdir, monkeypatch, capsys, command, t):
    import eotmaps.transport as transport
    from eotmaps import cli

    def unreachable(X, Y, **kwargs):
        raise AssertionError("the plan was solved before t was checked")

    monkeypatch.setattr(transport, "transport_plan", unreachable)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("kind,i,j\nXX,0,1\n")
    outputs = {
        "embed": ["--out-embedding", str(tmp_path / "e.csv"), "--out-spectrum", str(tmp_path / "s.csv")],
        "distances": ["--pairs", str(pairs), "--out", str(tmp_path / "d.csv")],
    }
    code = cli.main([
        command, "--in-x", str(workdir / "X.csv"), "--in-y", str(workdir / "Y.csv"),
        "--t", t, *outputs[command],
    ])
    assert code == 2
    assert "t must be" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["0", "bogus"])
def test_embed_q_checked_before_the_plan(tmp_path, workdir, monkeypatch, capsys, q):
    import eotmaps.transport as transport
    from eotmaps import cli

    def unreachable(X, Y, **kwargs):
        raise AssertionError("the plan was solved before q was checked")

    monkeypatch.setattr(transport, "transport_plan", unreachable)
    code = cli.main([
        "embed", "--in-x", str(workdir / "X.csv"), "--in-y", str(workdir / "Y.csv"), "--q", q,
        "--out-embedding", str(tmp_path / "e.csv"), "--out-spectrum", str(tmp_path / "s.csv"),
    ])
    assert code == 2
    assert "q must be" in capsys.readouterr().err


_PLAN_FLAG_CASES = [  # (command, flag, value, message)
    *((command, *case) for case in [
        ("--epsilon", "wide", '--epsilon must be a number or "median", got \'wide\''),
        ("--epsilon", "-1", "epsilon must be a finite number > 0, got -1.0"),
        ("--tol", "-1", "tol must be a finite number > 0, got -1.0"),
        ("--max-iter", "0", "max_iter must be >= 1, got 0"),
    ] for command in ("embed", "distances")),
    ("distances", "--t", "0", "t must be >= 1, got 0"),
]


@pytest.mark.parametrize("command,flag,value,message",
                         [pytest.param(*case, id="-".join([*case[1:], case[0]])) for case in _PLAN_FLAG_CASES])
def test_plan_flags_checked_before_the_inputs_are_read(tmp_path, monkeypatch, capsys, command,
                                                       flag, value, message):
    # every table the CLI reads goes through _read_matrix, the pair list too,
    # so a bad flag must exit 2 before any input file is opened
    from eotmaps import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("an input was read before the plan flags were checked")

    monkeypatch.setattr(cli, "_read_matrix", unreachable)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("kind,i,j\nXX,0,1\n")
    outputs = {
        "embed": ["--out-embedding", str(tmp_path / "e.csv"), "--out-spectrum", str(tmp_path / "s.csv")],
        "distances": ["--t", "2", "--pairs", str(pairs), "--out", str(tmp_path / "d.csv")],
    }
    code = cli.main([  # the flag last: it overrides the --t 2 of distances' outputs
        command, "--in-x", str(tmp_path / "X.csv"), "--in-y", str(tmp_path / "Y.csv"),
        *outputs[command], flag, value,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_output_files_text(tmp_path, workdir, monkeypatch):
    # the exact bytes of the label, embedding and spectrum tables, from fixed
    # arrays: integer columns without ".0", %.17g values (-0, subnormals,
    # exponents), one header line and a trailing newline
    from types import SimpleNamespace

    import eotmaps.embedding as embedding
    import eotmaps.linalg as linalg
    import eotmaps.simulate as simulate
    import eotmaps.transport as transport
    from eotmaps import cli

    points = SimpleNamespace(values=np.ones((2, 3)))
    pair = SimpleNamespace(
        name="fixed", X=points, Y=points, pooled_latent=np.zeros((4, 1)),
        pooled_labels=np.array([0, 2, 1, 10]), latent_x=SimpleNamespace(labels=None),
    )
    monkeypatch.setattr(simulate, "preset", lambda *args: pair)
    write_config(tmp_path / "c.json")
    assert cli.main([
        "simulate", "--config", str(tmp_path / "c.json"),
        "--out-x", str(tmp_path / "X.csv"), "--out-y", str(tmp_path / "Y.csv"),
        "--out-latent", str(tmp_path / "L.csv"), "--out-labels", str(tmp_path / "labels.txt"),
    ]) == 0
    assert (tmp_path / "labels.txt").read_text() == "0\n2\n1\n10\n"

    plan = SimpleNamespace(shape=(2, 3), W=None, epsilon=0.5, iterations=7)
    emb = SimpleNamespace(
        Xt=np.array([[-0.0, 5e-324], [1 / 3, 1e22]]),
        Yt=np.array([[2.0, -1 / 3], [1.5, 0.0], [-7.0, 1e-300]]),
        q=2, t=0,
    )
    model = SimpleNamespace(U=np.zeros((2, 4)), V=np.zeros((3, 4)))
    blocks = []
    monkeypatch.setattr(transport, "transport_plan", lambda X, Y, **kwargs: plan)
    monkeypatch.setattr(linalg, "singular_values",
                        lambda W, block: blocks.append(block) or np.array([1.0, 1 / 3, 5e-324, -0.0]))
    monkeypatch.setattr(embedding, "spectral_model", lambda plan, k: model)
    monkeypatch.setattr(embedding, "embed_from_model", lambda model, q, t: emb)
    assert cli.main([
        "embed", "--in-x", str(workdir / "X.csv"), "--in-y", str(workdir / "Y.csv"),
        "--out-embedding", str(tmp_path / "e.csv"), "--out-spectrum", str(tmp_path / "s.csv"),
    ]) == 0
    assert (tmp_path / "e.csv").read_text() == (
        "dataset,point_index,coord_1,coord_2\n"
        "0,0,-0,4.9406564584124654e-324\n"
        "0,1,0.33333333333333331,1e+22\n"
        "1,0,2,-0.33333333333333331\n"
        "1,1,1.5,0\n"
        "1,2,-7,1e-300\n"
    )
    assert (tmp_path / "s.csv").read_text() == (
        "k,s\n1,1\n2,0.33333333333333331\n3,4.9406564584124654e-324\n4,-0\n"
    )
    # the spectrum deflates the model's leading q + 1 = 3 vectors
    assert [(U.shape, V.shape) for U, V in blocks] == [((2, 3), (3, 3))]


def test_embed_unconverged_plan_exits_3_before_the_spectrum(tmp_path, workdir, monkeypatch, capsys):
    import eotmaps.linalg as linalg
    import eotmaps.transport as transport
    from eotmaps import TransportPlan, cli

    def unconverged(X, Y, **kwargs):
        W = np.random.default_rng(3).uniform(0.5, 1.5, size=(len(X), len(Y)))
        return TransportPlan(W=W, epsilon=1.0)

    def spectrum(*args, **kwargs):
        raise AssertionError("singular_values reached")

    monkeypatch.setattr(transport, "transport_plan", unconverged)
    monkeypatch.setattr(linalg, "singular_values", spectrum)
    code = cli.main([
        "embed", "--in-x", str(workdir / "X.csv"), "--in-y", str(workdir / "Y.csv"),
        "--out-embedding", str(tmp_path / "e.csv"), "--out-spectrum", str(tmp_path / "s.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err and "leading singular value" in err
    assert not (tmp_path / "e.csv").exists() and not (tmp_path / "s.csv").exists()


def test_deflated_spectrum_out_of_memory_exits_2(tmp_path, workdir, monkeypatch, capsys):
    import eotmaps.linalg as linalg
    from eotmaps import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    # the 8 x 10 plan's q + 1 = 3 leading vectors clear every check before
    # eigvalsh with room (residual 1.2 eps * s_1, gap s_3 / s_4 = 7.6), so the
    # spectrum reaches the deflated Gram matrix's eigvalsh
    deflations = []
    original = linalg._deflated_values
    monkeypatch.setattr(linalg, "_deflated_values", lambda W, P: deflations.append(P.shape) or original(W, P))
    monkeypatch.setattr(np.linalg, "eigvalsh", exhausted)
    code = cli.main([
        "embed", "--in-x", str(workdir / "X.csv"), "--in-y", str(workdir / "Y.csv"), "--q", "2",
        "--out-embedding", str(tmp_path / "e.csv"), "--out-spectrum", str(tmp_path / "s.csv"),
    ])
    err = capsys.readouterr().err
    assert deflations == [(8, 3)]
    assert code == 2
    assert "8 x 10 matrix does not fit in memory" in err and "MiB" in err
    assert "Traceback" not in err


def test_distances_unconverged_plan_exits_3(tmp_path, workdir, monkeypatch, capsys):
    import eotmaps.transport as transport
    from eotmaps import TransportPlan, cli

    def unconverged(X, Y, **kwargs):
        W = np.random.default_rng(3).uniform(0.5, 1.5, size=(len(X), len(Y)))
        return TransportPlan(W=W, epsilon=1.0)

    monkeypatch.setattr(transport, "transport_plan", unconverged)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("kind,i,j\nXX,0,1\n")
    code = cli.main([
        "distances", "--in-x", str(workdir / "X.csv"), "--in-y", str(workdir / "Y.csv"),
        "--t", "2", "--pairs", str(pairs), "--out", str(tmp_path / "d.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err and "leading singular value" in err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("metric", ["rand", "db", "silhouette", "purity"])
def test_evaluate_label_metrics(workdir, metric):
    args = [
        "evaluate", "--embedding", workdir / "emb.csv", "--metric", metric,
        "--labels", workdir / "labels.txt",
    ]
    if metric == "purity":
        args += ["--k", 3]
    r = run_cli(*args)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["metric"] == metric
    assert np.isfinite(payload["value"])


def test_evaluate_concordance(workdir, tmp_path):
    out = tmp_path / "result.json"
    r = run_cli(
        "evaluate", "--embedding", workdir / "emb.csv", "--metric", "concordance",
        "--latent", workdir / "latent.csv", "--k", 5, "--out", out,
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    assert payload["params"] == {"k": 5}
    assert 0.0 <= payload["value"] <= 1.0


def test_evaluate_rand_params_and_determinism(workdir):
    args = [
        "evaluate", "--embedding", workdir / "emb.csv", "--metric", "rand",
        "--labels", workdir / "labels.txt", "--clusters", 2, "--seed", 4,
    ]
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0 and a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["params"] == {"clusters": 2, "seed": 4}


def test_evaluate_input_errors(workdir, tmp_path):
    r = run_cli(
        "evaluate", "--embedding", workdir / "emb.csv", "--metric", "concordance",
    )
    assert r.returncode == 2 and "--latent" in r.stderr

    r = run_cli(
        "evaluate", "--embedding", workdir / "emb.csv", "--metric", "db",
    )
    assert r.returncode == 2 and "--labels" in r.stderr

    short = tmp_path / "short.txt"
    short.write_text("0\n1\n")
    r = run_cli(
        "evaluate", "--embedding", workdir / "emb.csv", "--metric", "db",
        "--labels", short,
    )
    assert r.returncode == 2 and "do not match" in r.stderr

    r = run_cli(
        "evaluate", "--embedding", workdir / "emb.csv", "--metric", "rand",
        "--labels", workdir / "labels.txt", "--clusters", 1,
    )
    assert r.returncode == 2 and "--clusters" in r.stderr

    bad = tmp_path / "bad.csv"
    bad.write_text("left,right\n1,2\n")
    r = run_cli("evaluate", "--embedding", bad, "--metric", "db", "--labels", short)
    assert r.returncode == 2 and "header" in r.stderr



@pytest.mark.parametrize("rows,message", [
    ("0,0,nan\n0,1,1\n1,0,2\n1,1,3\n", "contains non-finite entries"),
    ("", "is empty"),
], ids=["nan-coordinate", "header-only"])
def test_evaluate_names_a_bad_embedding_file(tmp_path, rows, message):
    emb, labels = tmp_path / "emb.csv", tmp_path / "labels.txt"
    emb.write_text("dataset,point_index,coord_1\n" + rows)
    labels.write_text("0\n1\n0\n1\n")
    r = run_cli("evaluate", "--embedding", emb, "--metric", "db", "--labels", labels)
    assert r.returncode == 2
    assert r.stderr == f"error: {emb} {message}\n"  # no loadtxt warning ahead of it


def test_evaluate_rand_with_fewer_distinct_points_than_clusters_exits_2(tmp_path):
    # three labels ask kmeans for three clusters, but the points sit at two locations
    emb, labels = tmp_path / "emb.csv", tmp_path / "labels.txt"
    emb.write_text("dataset,point_index,coord_1\n0,0,0\n0,1,0\n1,0,0\n1,1,1\n")
    labels.write_text("0\n1\n2\n0\n")
    r = run_cli("evaluate", "--embedding", emb, "--metric", "rand", "--labels", labels)
    assert r.returncode == 2
    assert "k=3 clusters need 3 distinct points, got 2" in r.stderr

@pytest.mark.parametrize("first,message", [("0.5", "must be integers"), ("1e30", "must lie in the int64 range")])
def test_evaluate_rejects_labels_it_cannot_hold(workdir, tmp_path, first, message):
    # 1e30 and 2e30 used to become -2^63 both, and rand scored them as one class
    labels = tmp_path / "labels.txt"
    lines = (workdir / "labels.txt").read_text().splitlines()
    labels.write_text("\n".join([first, "2e30", *lines[2:]]) + "\n")
    r = run_cli(
        "evaluate", "--embedding", workdir / "emb.csv", "--metric", "rand", "--labels", labels,
    )
    assert r.returncode == 2
    assert f"labels in {labels} {message}" in r.stderr


def test_evaluate_reads_labels_exactly(tmp_path):
    # 2^53 and 2^53 + 1 are one float64: read through floats they became one
    # class, and rand asked kmeans for a single cluster
    emb = tmp_path / "emb.csv"
    emb.write_text("dataset,point_index,coord_1\n0,0,0\n0,1,0.1\n1,0,5\n1,1,5.1\n")
    values = []
    for name, rows in [("exact", ["9007199254740992", "9007199254740993"]),
                       ("small", ["0", "1"]), ("float", ["0.0", "1.0"])]:
        labels = tmp_path / f"{name}.txt"
        labels.write_text("\n".join(rows[:1] * 2 + rows[1:] * 2) + "\n")
        r = run_cli("evaluate", "--embedding", emb, "--metric", "rand", "--labels", labels)
        assert r.returncode == 0, r.stderr
        values.append(json.loads(r.stdout))
    assert values[0] == values[1] == values[2]
    assert values[0]["params"]["clusters"] == 2 and values[0]["value"] == 1.0


@pytest.mark.parametrize("command,required", [
    ("embed", ["--out-embedding", "e.csv", "--out-spectrum", "s.csv"]),
    ("distances", ["--t", "1", "--pairs", "p.csv", "--out", "d.csv"]),
], ids=["embed", "distances"])
def test_plan_flag_defaults_are_the_library_defaults(command, required):
    # build_parser spells the defaults out, since it may not import numpy
    # before --threads is applied
    from eotmaps import cli, transport

    args = cli.build_parser().parse_args([command, "--in-x", "x.csv", "--in-y", "y.csv", *required])
    assert args.tol == transport.DEFAULT_TOL
    assert args.max_iter == transport.DEFAULT_MAX_ITER


def test_distances_roundtrip_and_values(workdir, tmp_path):
    from eotmaps import DiffusionContext, diffusion_distance, transport_plan

    pairs = tmp_path / "pairs.csv"
    pairs.write_text("kind,i,j\nXX,0,0\nXX,0,5\nYY,2,7\nXY,3,9\n")
    out = tmp_path / "dist.csv"
    r = run_cli(
        "distances", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--t", 2, "--pairs", pairs, "--out", out,
    )
    assert r.returncode == 0, r.stderr

    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,i,j,distance"
    values = [float(line.split(",")[3]) for line in lines[1:]]
    assert values[0] == 0.0
    assert all(v >= 0 for v in values)

    X = np.loadtxt(workdir / "X.csv", delimiter=",")
    Y = np.loadtxt(workdir / "Y.csv", delimiter=",")
    plan = transport_plan(X, Y)
    ctx = DiffusionContext(plan, 2)
    assert values[1] == pytest.approx(diffusion_distance(ctx, "XX", 0, 5), rel=1e-12)
    assert values[2] == pytest.approx(diffusion_distance(ctx, "YY", 2, 7), rel=1e-12)
    assert values[3] == pytest.approx(diffusion_distance(ctx, "XY", 3, 9), rel=1e-12)


def test_distances_swapped_inputs_are_consistent(workdir, tmp_path):
    # swapping the roles of X and Y (and the kinds/indices accordingly) must
    # give identical distances
    fwd_pairs = tmp_path / "fwd.csv"
    fwd_pairs.write_text("kind,i,j\nXX,1,4\nYY,0,3\nXY,2,6\n")
    rev_pairs = tmp_path / "rev.csv"
    rev_pairs.write_text("kind,i,j\nYY,1,4\nXX,0,3\nXY,6,2\n")

    fwd_out, rev_out = tmp_path / "fwd_d.csv", tmp_path / "rev_d.csv"
    r1 = run_cli(
        "distances", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--t", 3, "--pairs", fwd_pairs, "--out", fwd_out,
    )
    r2 = run_cli(
        "distances", "--in-x", workdir / "Y.csv", "--in-y", workdir / "X.csv",
        "--t", 3, "--pairs", rev_pairs, "--out", rev_out,
    )
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    fwd = [line.split(",")[3] for line in fwd_out.read_text().strip().splitlines()[1:]]
    rev = [line.split(",")[3] for line in rev_out.read_text().strip().splitlines()[1:]]
    for a, b in zip(fwd, rev):
        assert float(a) == pytest.approx(float(b), rel=1e-9)


@pytest.fixture(scope="module")
def mid(tmp_path_factory):
    """A 150 x 200 setting2 pair and 3,000 pairs of every kind, for the distances child."""
    d = tmp_path_factory.mktemp("mid")
    write_config(d / "config.json", name="setting2", m=150, n=200, p=20, seed=5, param=3.0)
    r = run_cli(
        "simulate", "--config", d / "config.json",
        "--out-x", d / "X.csv", "--out-y", d / "Y.csv",
        "--out-latent", d / "latent.csv", "--out-labels", d / "labels.txt",
    )
    assert r.returncode == 0, r.stderr
    rng = np.random.default_rng(8)
    kinds = rng.choice(["XX", "YY", "XY"], size=3000)
    sizes = {"X": 150, "Y": 200}
    rows = [f"{k},{rng.integers(sizes[k[0]])},{rng.integers(sizes[k[1]])}" for k in kinds]
    (d / "pairs.csv").write_text("kind,i,j\n" + "\n".join(rows) + "\n")
    return d


def run_distances(d, out, t, threads):
    r = run_cli(
        "--threads", threads, "distances", "--in-x", d / "X.csv", "--in-y", d / "Y.csv",
        "--t", t, "--pairs", d / "pairs.csv", "--out", out,
    )
    assert r.returncode == 0, r.stderr
    return np.loadtxt(out, delimiter=",", skiprows=1, usecols=3)


@pytest.mark.parametrize("t", [1, 2])
def test_distances_reproducible(tmp_path, mid, t):
    run_distances(mid, tmp_path / "a.csv", t, 1)
    run_distances(mid, tmp_path / "b.csv", t, 1)
    assert sha256(tmp_path / "a.csv") == sha256(tmp_path / "b.csv")


@pytest.mark.parametrize("t", [1, 2])
def test_distances_agree_across_thread_counts(tmp_path, mid, t):
    one = run_distances(mid, tmp_path / "one.csv", t, 1)
    two = run_distances(mid, tmp_path / "two.csv", t, 2)
    assert np.abs(one - two).max() <= 1e-12


def test_distances_input_errors(workdir, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\nXX,0,0\n")
    out = tmp_path / "o.csv"
    r = run_cli(
        "distances", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--t", 1, "--pairs", bad, "--out", out,
    )
    assert r.returncode == 2 and "header" in r.stderr

    bad.write_text("kind,i,j\nZZ,0,0\n")
    r = run_cli(
        "distances", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--t", 1, "--pairs", bad, "--out", out,
    )
    assert r.returncode == 2 and "kind" in r.stderr

    bad.write_text("kind,i,j\nXX,0,99\n")
    r = run_cli(
        "distances", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--t", 1, "--pairs", bad, "--out", out,
    )
    assert r.returncode == 2

    bad.write_text("kind,i,j\nXX,0,1\n")
    r = run_cli(
        "distances", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--t", 0, "--pairs", bad, "--out", out,
    )
    assert r.returncode == 2 and "t must be" in r.stderr


_UNDECODABLE = {  # a file whose bytes are not UTF-8, for each reading flag
    "config": b'{"name": "\xff"}\n',
    "in-x": b"1.0,\xff\n",
    "embedding": b"dataset,point_index,coord_1\xff\n",
    "pairs": b"kind,i,j\nXX,0,\xff\n",
}


@pytest.mark.parametrize("case", ["simulate-out", "embed-out", "evaluate-out", "distances-out",
                                  *_UNDECODABLE])
def test_unwritable_or_undecodable_file_exits_2(workdir, tmp_path, case):
    # one error line that names the file, not exit 1 with a traceback
    bad = tmp_path / "missing" / "out.csv"
    if case in _UNDECODABLE:
        bad = tmp_path / "binary.txt"
        bad.write_bytes(_UNDECODABLE[case])
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("kind,i,j\nXY,0,1\n")
    d, out = workdir, tmp_path / "out.csv"

    def pick(name, default):
        return bad if case == name else default

    argv = {
        "simulate": ["--config", pick("config", d / "config.json"), "--out-x", pick("simulate-out", out),
                     "--out-y", out, "--out-latent", out, "--out-labels", out],
        "embed": ["--in-x", pick("in-x", d / "X.csv"), "--in-y", d / "Y.csv",
                  "--out-embedding", pick("embed-out", out), "--out-spectrum", out],
        "evaluate": ["--embedding", pick("embedding", d / "emb.csv"), "--metric", "db",
                     "--labels", d / "labels.txt", "--out", pick("evaluate-out", out)],
        "distances": ["--in-x", d / "X.csv", "--in-y", d / "Y.csv", "--t", 1,
                      "--pairs", pick("pairs", pairs), "--out", pick("distances-out", out)],
    }
    command = next(c for c, args in argv.items() if bad in args)
    r = run_cli(command, *argv[command])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
    assert str(bad) in r.stderr


_CLEAN_PAIRS = "kind,i,j\nXX,0,5\nYY,2,7\nXY,3,9\n"
_PAIR_LISTS = {  # the same pairs as _CLEAN_PAIRS, or an error the line must give
    "blank-line": ("kind,i,j\nXX,0,5\n\nYY,2,7\nXY,3,9\n", None),
    "spaces": ("kind , i , j\n XX , 0 , 5 \nYY,2,7\n XY,3 ,9\n", None),
    "crlf": (_CLEAN_PAIRS.replace("\n", "\r\n"), None),
    "comment": ("kind,i,j\n# kind,i,j\nXX,0,5\nYY,2,7\nXY,3,9\n", None),
    "extra-column": ("kind,i,j\nXX,0,5,1\nYY,2,7,1\n", "rows must have 3 columns 'kind,i,j', got 4"),
    "long-row": ("kind,i,j\nXX,0,5\nYY,2,7,1\n", "the number of columns changed from 3 to 4 at row 2"),
    "short-row": ("kind,i,j\nXX,0,5\nYY,2\n", "the number of columns changed from 3 to 2 at row 2"),
    "header-only": ("kind,i,j\n", "is empty"),
    "non-integer": ("kind,i,j\nXX,0,5\nYY,2,7.5\n", "indices must be integers"),
    "beyond-int64": ("kind,i,j\nXX,0,99999999999999999999\n", "indices must be integers (int64)"),
    "unknown-kind": ("kind,i,j\nXX,0,5\n\n ZZ ,1,2\n", "row 2: kind must be XX, YY or XY, got 'ZZ'"),
    "quoted-kind": ("kind,i,j\n\"XX\",0,5\n", "row 1: kind must be XX, YY or XY, got '\"XX\"'"),
}


@pytest.mark.parametrize("case", _PAIR_LISTS)
def test_pair_list_format(workdir, tmp_path, case):
    # blank and # lines are skipped and spaces around fields ignored, as in
    # every table the CLI reads; a malformed list exits 2 with one error line
    text, error = _PAIR_LISTS[case]
    runs = []
    for name, pairs in (("clean", _CLEAN_PAIRS), (case, text)):
        (tmp_path / f"{name}.csv").write_bytes(pairs.encode())
        runs.append(run_cli(
            "distances", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
            "--t", 1, "--pairs", tmp_path / f"{name}.csv", "--out", tmp_path / f"{name}-dist.csv",
        ))
    clean, r = runs
    assert clean.returncode == 0, clean.stderr
    if error is None:
        assert (r.returncode, r.stdout, r.stderr) == (0, clean.stdout, clean.stderr)
        assert sha256(tmp_path / f"{case}-dist.csv") == sha256(tmp_path / "clean-dist.csv")
    else:
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
        assert str(tmp_path / f"{case}.csv") in r.stderr and error in r.stderr, r.stderr
        assert not (tmp_path / f"{case}-dist.csv").exists()


def test_distances_checks_every_pair_before_writing(workdir, tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("kind,i,j\nXX,0,1\nYY,2,3\nXY,3,99\n")
    out = tmp_path / "dist.csv"
    r = run_cli(
        "distances", "--in-x", workdir / "X.csv", "--in-y", workdir / "Y.csv",
        "--t", 1, "--pairs", pairs, "--out", out,
    )
    assert r.returncode == 2 and "j must be in [0, 9], got 99" in r.stderr
    assert not out.exists()


def test_distances_errors_name_the_callers_index_on_swapped_inputs(workdir, tmp_path):
    # X.csv has 8 rows and Y.csv 10: with the files exchanged the plan is
    # stored as (Y, X), and the error must still name j of the caller's Y
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("kind,i,j\nXY,3,9\n")
    out = tmp_path / "dist.csv"
    r = run_cli(
        "distances", "--in-x", workdir / "Y.csv", "--in-y", workdir / "X.csv",
        "--t", 1, "--pairs", pairs, "--out", out,
    )
    assert r.returncode == 2 and "j must be in [0, 7], got 9" in r.stderr
    assert not out.exists()


def test_threads_flag(workdir, tmp_path):
    r = run_cli("--threads", 0, "embed", "--in-x", workdir / "X.csv",
                "--in-y", workdir / "Y.csv",
                "--out-embedding", tmp_path / "e.csv",
                "--out-spectrum", tmp_path / "s.csv")
    assert r.returncode == 2 and "--threads" in r.stderr

    r = run_cli("--threads", 2, "embed", "--in-x", workdir / "X.csv",
                "--in-y", workdir / "Y.csv", "--q", 2,
                "--out-embedding", tmp_path / "e.csv",
                "--out-spectrum", tmp_path / "s.csv")
    assert r.returncode == 0
    assert sha256(tmp_path / "e.csv") == sha256(workdir / "emb.csv")


def test_help_and_unknown_command():
    assert run_cli("--help").returncode == 0
    assert run_cli("frobnicate").returncode == 2
