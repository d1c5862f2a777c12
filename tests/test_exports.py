import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eotmaps
from eotmaps import (
    ConvergenceError,
    InvariantError,
    NumericalError,
    PlanNotConvergedError,
)

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    # __init__ resolves names lazily, so a stale entry only fails on access
    for name in eotmaps.__all__:
        assert getattr(eotmaps, name) is not None, name


@pytest.mark.parametrize("cls", [ConvergenceError, PlanNotConvergedError, InvariantError])
def test_numerical_failures_share_one_base(cls):
    # the CLI maps NumericalError, and only it, to exit code 3
    assert issubclass(cls, NumericalError)


def _results():
    """One of each result record; a second call builds equal-valued copies."""
    pair = eotmaps.preset("setting1", 12, 15, 5, 0)
    plan = eotmaps.transport_plan(pair.X.values, pair.Y.values)
    model = eotmaps.spectral_model(plan, k=3)
    return (pair, pair.X, pair.latent_x, plan, model, eotmaps.embed_from_model(model, q=2, t=0),
            eotmaps.build_operators(plan), eotmaps.DiffusionContext(plan=plan, t=1))


def test_result_records_compare_by_identity():
    # a field-wise == or hash cannot work on arrays (no single truth value,
    # unhashable), so every record is equal only to itself and hashes by identity
    first, second = _results(), _results()
    assert {type(r).__name__ for r in first} == {
        "SimulatedPair", "DataMatrix", "LatentSample", "TransportPlan", "SpectralModel",
        "JointEmbedding", "BipartiteOperators", "DiffusionContext"}
    for a, b in zip(first, second):
        assert a == a and a != b and len({a, b}) == 2, type(a).__name__


@pytest.fixture
def tracing(monkeypatch):
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_resolve(tracing):
    # the benchmark's tracer replaces these module globals by name, so a
    # renamed or dropped function would only fail in a traced run
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_library_runs_under_the_benchmark_tracer(tracing):
    # the wrappers are functions, so a module that used one of the replaced
    # globals as a type (isinstance(ctx, DiffusionContext)) fails only when traced
    from eotmaps import diffusion, embedding, metrics, transport

    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(30, 4)), rng.normal(size=(40, 4))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        emb = embedding.eot_eigenmaps(X, Y, q=2)
        ctx = diffusion.DiffusionContext(plan=transport.transport_plan(X, Y), t=2)
        diffusion.diffusion_distance(ctx, "XY", np.arange(5), np.arange(5))
        diffusion.block_power(ctx, "XX")
        metrics.jaccard_concordance(np.vstack([emb.Xt, emb.Yt]), np.vstack([X, Y]), k=5)
    finally:
        tracer.uninstall()
    labels = {span.label for span in tracer.spans}
    assert {"transport.sinkhorn", "diffusion.DiffusionContext", "metrics.knn"} <= labels


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "neighborhood concordance:" in capsys.readouterr().out


def test_readme_command_line_runs(tmp_path):
    # the "Command line" block, as written, with eotmaps run as python -m eotmaps
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.DOTALL).group(1)
    script = f'set -e\neotmaps() {{ "{sys.executable}" -m eotmaps "$@"; }}\n{block}'
    src = str(Path(eotmaps.__file__).parents[1])  # the package under test, from any directory
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    r = subprocess.run(["sh", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    outputs = re.findall(r"--out[a-z-]* (\S+)", block)
    assert len(outputs) == 8
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name


def test_no_unused_imports():
    # no linter runs in CI, so this catches imports that a deletion left
    # behind; being listed in __all__ does not count as a use
    unused = []
    for path in sorted((ROOT / "src" / "eotmaps").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused


def test_imports_only_numpy_and_the_standard_library():
    # numpy is the one dependency (pyproject.toml); other packages may be
    # installed beside it, scipy among them, but the library must not use them
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted((ROOT / "src" / "eotmaps").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign


def test_no_unreferenced_private_names():
    # a module-level _name (function, class or constant) that no module of
    # the package reads is dead code a deletion left behind
    defined, referenced = {}, set()
    for path in sorted((ROOT / "src" / "eotmaps").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert not [f"{where} {name}" for name, where in defined.items() if name not in referenced]


def test_only_linalg_casts_arrays_to_float():
    # linalg.as_real is the one rule for arrays a caller passes: an
    # np.asarray(..., dtype=float) elsewhere would cast complex or text input
    # that the rule rejects
    casts = []
    for path in sorted((ROOT / "src" / "eotmaps").glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("asarray", "array")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and any(kw.arg == "dtype" and isinstance(kw.value, ast.Name)
                            and kw.value.id == "float" for kw in node.keywords)):
                casts.append(f"{path.name}:{node.lineno}")
    assert not casts
