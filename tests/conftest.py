"""Shared pytest wiring.

Collects the outcome of each acceptance test (tests/test_acceptance.py,
functions named ``test_cNN_<slug>``) and prints one ``ACCEPTANCE NN <slug>:
PASS/FAIL`` line per criterion in the terminal summary, where pytest's
output capture cannot swallow it.  Criterion 11 includes the whole-session
wall time against its 10-minute budget.

Also provides ``svd_paths``, which records the path whose triplets each call
to ``truncated_svd`` returned: "subspace" (block subspace iteration), "gram"
(the small-side Gram eigensolve) or "dense" (the sliced dense SVD).
"""

import re
import time

import pytest

_PATTERN = re.compile(r"test_acceptance\.py::test_c(\d{2})_([a-z0-9_]+)")
_results: dict[int, tuple[str, bool]] = {}
_session_start = time.monotonic()


def pytest_sessionstart(session):
    global _session_start
    _session_start = time.monotonic()


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if not match:
        return
    num, slug = int(match.group(1)), match.group(2)
    if report.when == "call" or (report.when != "call" and report.outcome == "failed"):
        ok = report.outcome == "passed"
        prev = _results.get(num)
        _results[num] = (slug, ok if prev is None else prev[1] and ok)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    elapsed = time.monotonic() - _session_start
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        slug, ok = _results[num]
        note = ""
        if num == 11:
            ok = ok and elapsed < 600.0
            note = f" (suite wall time {elapsed:.0f}s, budget 600s)"
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num:02d} {slug.replace('_', '-')}: {status}{note}")


@pytest.fixture
def svd_paths(monkeypatch):
    import eotmaps.linalg as linalg

    paths, proposed = [], []

    def spy(name, original, proposes):
        def wrapper(W, k):
            result = original(W, k)
            if proposes(result):
                proposed.append(name)
            return result

        return wrapper

    for name, proposes in [
        ("subspace", lambda result: result[0] is not None),
        ("gram", lambda result: result is not None),
        ("dense", lambda result: True),
    ]:
        original = getattr(linalg, f"_{name}_svd")
        monkeypatch.setattr(linalg, f"_{name}_svd", spy(name, original, proposes))

    # truncated_svd fixes signs once, on the triplets it returns.  A rejected
    # proposal is always followed by another path, and the dense one always
    # proposes, so the last proposal before that step is the one served.
    fix_signs = linalg._fix_singular_signs

    def served(s, U, V):
        paths.append(proposed[-1])
        proposed.clear()
        fix_signs(s, U, V)

    monkeypatch.setattr(linalg, "_fix_singular_signs", served)
    return paths
