import numpy as np
import pytest

from eotmaps import (
    DiffusionContext,
    DimensionError,
    InputError,
    PlanNotConvergedError,
    TransportPlan,
    block_power,
    build_operators,
    diffusion_distance,
    embed_from_model,
    preset,
    spectral_model,
    transport_plan,
    truncation_bound,
)

RNG = np.random.default_rng(93)
M, N = 7, 10


@pytest.fixture(scope="module")
def setup():
    X = RNG.normal(size=(M, 3))
    Y = RNG.normal(size=(N, 3))
    plan = transport_plan(X, Y, tol=1e-12)
    model = spectral_model(plan, k=M)
    ops = build_operators(plan)
    return X, Y, plan, model, ops


@pytest.mark.parametrize("t", [1, 2, 3, 5])
def test_block_powers_match_dense_walk(setup, t):
    # P has zero diagonal blocks, so its dense powers alternate: at even t
    # the cross blocks vanish and XX/YY are the true transition blocks, at
    # odd t the roles swap.  The spectral forms for the other parity are
    # interpolations and have no dense counterpart.
    _, _, plan, _, ops = setup
    ctx = DiffusionContext(plan, t)
    Pt = np.linalg.matrix_power(ops.P, t)
    if t % 2 == 0:
        np.testing.assert_allclose(block_power(ctx, "XX"), Pt[:M, :M], atol=1e-10)
        np.testing.assert_allclose(block_power(ctx, "YY"), Pt[M:, M:], atol=1e-10)
        np.testing.assert_allclose(Pt[:M, M:], 0.0, atol=1e-15)
        np.testing.assert_allclose(Pt[M:, :M], 0.0, atol=1e-15)
    else:
        np.testing.assert_allclose(block_power(ctx, "XY"), Pt[:M, M:], atol=1e-10)
        np.testing.assert_allclose(block_power(ctx, "YX"), Pt[M:, :M], atol=1e-10)
        np.testing.assert_allclose(Pt[:M, :M], 0.0, atol=1e-15)
        np.testing.assert_allclose(Pt[M:, M:], 0.0, atol=1e-15)


def test_one_step_cross_block_recovers_plan(setup):
    _, _, plan, _, _ = setup
    ctx = DiffusionContext(plan, 1)
    np.testing.assert_allclose(
        block_power(ctx, "XY") * np.sqrt(N / M), plan.W, atol=1e-12
    )


def test_block_rows_sum_to_one(setup):
    plan = setup[2]
    for t in (1, 2, 4):
        ctx = DiffusionContext(plan, t)
        for block in ("XX", "XY", "YX", "YY"):
            np.testing.assert_allclose(block_power(ctx, block).sum(axis=1), 1.0, atol=1e-9)


def test_block_parity_nonnegativity(setup):
    # the dense walk alternates between the bipartition sides, so same-side
    # blocks are nonnegative at even t and cross blocks at odd t
    plan = setup[2]
    for t, nonneg in ((1, ("XY", "YX")), (2, ("XX", "YY")), (3, ("XY", "YX"))):
        ctx = DiffusionContext(plan, t)
        for block in nonneg:
            assert block_power(ctx, block).min() >= -1e-12


@pytest.mark.parametrize("t", [1, 2, 3])
def test_same_side_distance_equals_dense_row_difference(setup, t):
    # for two vertices on the same side, both Pt rows live on the same side
    # of the bipartition (whichever parity selects), so the distance is a
    # plain weighted row difference of the dense walk.  Cross pairs have no
    # such identity: their same-t rows have disjoint support.
    _, _, plan, _, ops = setup
    ctx = DiffusionContext(plan, t)
    Pt = np.linalg.matrix_power(ops.P, t)
    weights = np.concatenate([np.full(M, M), np.full(N, N)])  # inverse side mass

    i, j = 1, 5
    delta = Pt[i] - Pt[j]
    route = np.sqrt((delta**2 * weights).sum())
    assert diffusion_distance(ctx, "XX", i, j) == pytest.approx(route, rel=1e-9)

    i, j = 0, 9
    delta = Pt[M + i] - Pt[M + j]
    route = np.sqrt((delta**2 * weights).sum())
    assert diffusion_distance(ctx, "YY", i, j) == pytest.approx(route, rel=1e-9)


def test_distances_form_a_metric_on_the_union(setup):
    # the closed forms are Euclidean distances between embedded points, so
    # nonnegativity, symmetry, and the triangle inequality must hold across
    # arbitrary mixed-side triples
    plan = setup[2]
    ctx = DiffusionContext(plan, 2)
    rng = np.random.default_rng(17)

    def dist(a, b):
        side_a, ia = a
        side_b, ib = b
        if side_a == side_b:
            return diffusion_distance(ctx, "XX" if side_a == 0 else "YY", ia, ib)
        if side_a == 0:
            return diffusion_distance(ctx, "XY", ia, ib)
        return diffusion_distance(ctx, "XY", ib, ia)

    vertices = [(0, i) for i in range(M)] + [(1, j) for j in range(N)]
    for _ in range(60):
        a, b, c = (vertices[k] for k in rng.integers(len(vertices), size=3))
        dab, dbc, dac = dist(a, b), dist(b, c), dist(a, c)
        assert dab >= 0 and dbc >= 0 and dac >= 0
        assert dab == pytest.approx(dist(b, a), abs=1e-12)
        assert dac <= dab + dbc + 1e-10


def test_distance_equals_full_embedding_distance(setup):
    _, _, plan, model, _ = setup
    for t in (1, 2, 3):
        ctx = DiffusionContext(plan, t)
        emb = embed_from_model(model, q=M - 1, t=t)
        i, j = 3, 6
        assert diffusion_distance(ctx, "XX", i, j) == pytest.approx(
            np.linalg.norm(emb.Xt[i] - emb.Xt[j]), abs=1e-10
        )
        assert diffusion_distance(ctx, "XY", i, j) == pytest.approx(
            np.linalg.norm(emb.Xt[i] - emb.Yt[j]), abs=1e-10
        )
        assert diffusion_distance(ctx, "YY", i, j) == pytest.approx(
            np.linalg.norm(emb.Yt[i] - emb.Yt[j]), abs=1e-10
        )


def test_distance_symmetry_and_identity(setup):
    plan = setup[2]
    ctx = DiffusionContext(plan, 2)
    assert diffusion_distance(ctx, "XX", 2, 2) == 0.0
    assert diffusion_distance(ctx, "XX", 1, 4) == diffusion_distance(ctx, "XX", 4, 1)
    assert diffusion_distance(ctx, "YY", 0, 3) == diffusion_distance(ctx, "YY", 3, 0)


def test_truncation_residual_within_bound(setup):
    _, _, plan, model, _ = setup
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = int(rng.integers(1, 4))
        q = int(rng.integers(1, M - 1))
        ctx = DiffusionContext(plan, t)
        emb = embed_from_model(spectral_model(plan, k=min(M, q + 2)), q=q, t=t)
        kind = ("XX", "YY", "XY")[rng.integers(3)]
        if kind == "XX":
            i, j = rng.integers(M), rng.integers(M)
            truncated = np.linalg.norm(emb.Xt[i] - emb.Xt[j])
        elif kind == "YY":
            i, j = rng.integers(N), rng.integers(N)
            truncated = np.linalg.norm(emb.Yt[i] - emb.Yt[j])
        else:
            i, j = rng.integers(M), rng.integers(N)
            truncated = np.linalg.norm(emb.Xt[i] - emb.Yt[j])
        exact = diffusion_distance(ctx, kind, int(i), int(j))
        residual = exact**2 - truncated**2
        bound = truncation_bound(model.s[q + 1], t, M, N, kind)
        assert -1e-10 <= residual <= bound + 1e-12


def test_truncation_bound_values():
    assert truncation_bound(0.5, 1, 4, 9, "XX") == pytest.approx(4 * 4 * 0.25)
    assert truncation_bound(0.5, 1, 4, 9, "YY") == pytest.approx(4 * 9 * 0.25)
    assert truncation_bound(0.5, 2, 4, 9, "XY") == pytest.approx(25 * 0.5**4)


def test_truncation_bound_validation():
    with pytest.raises(InputError):
        truncation_bound(0.5, 0, 4, 9, "XX")
    with pytest.raises(InputError):
        truncation_bound(-0.1, 1, 4, 9, "XX")
    with pytest.raises(InputError):
        truncation_bound(0.5, 1, 4, 9, "ZZ")
    with pytest.raises(InputError):
        truncation_bound(np.inf, 1, 4, 9, "XY")
    with pytest.raises(InputError):
        truncation_bound(0.5, 1, 1.5, 3, "XX")
    with pytest.raises(InputError):
        truncation_bound(True, 1, 4, 9, "XX")


def test_context_validation(setup):
    _, _, plan, model, _ = setup
    with pytest.raises(InputError):
        DiffusionContext(plan, 0)
    with pytest.raises(InputError):
        DiffusionContext(plan, 1.5)
    with pytest.raises(InputError, match="TransportPlan"):
        DiffusionContext(model, 1)
    ctx = DiffusionContext(plan, 1)
    assert ctx.m == M and ctx.n == N


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("leading", ["off", "one"])
def test_context_rejects_unconverged_plan(t, leading):
    # a plan with the wrong marginals: its leading value is off 1 ("off"),
    # or, rescaled to s_1 = 1 ("one"), its leading vectors are not constant;
    # the SVD route (t = 1) and the Gram route (t >= 2) both certify the pair
    W = np.random.default_rng(3).uniform(0.5, 1.5, size=(5, 8))
    if leading == "one":
        W = W / np.linalg.svd(W, compute_uv=False)[0]
    bogus = TransportPlan(W=W, alpha=np.ones(5), beta=np.ones(8), epsilon=1.0,
                          iterations=1, marginal_residual=1.0)
    with pytest.raises(PlanNotConvergedError):
        DiffusionContext(bogus, t)


def full_model_distances(model, t, kind, i, j):
    """The closed-form sums over every triplet, as the module docstring states them."""
    m, n = model.U.shape[0], model.V.shape[0]
    side = {"X": np.sqrt(m) * model.U[:, 1:], "Y": np.sqrt(n) * model.V[:, 1:]}
    a, b = side[kind[0]][i], side[kind[1]][j]
    return np.sqrt((model.s[1:] ** (2 * t) * (a - b) ** 2).sum(axis=1))


@pytest.mark.parametrize("name,param", [("setting1", 8.0), ("setting2", 3.0), ("clustering", 1.0)])
def test_distances_match_the_full_model_formula(name, param):
    # the Gram-built coordinates (t >= 2) and the SVD-built ones (t = 1)
    # against the sums over all triplets of the plan's full SVD, in both
    # input orders
    pair = preset(name, 300, 420, 20, 0, param)
    rng = np.random.default_rng(11)
    for X, Y in ((pair.X.values, pair.Y.values), (pair.Y.values, pair.X.values)):
        plan = transport_plan(X, Y)
        model = spectral_model(plan, min(plan.shape))
        sizes = {"X": len(X), "Y": len(Y)}
        for t in (1, 2, 3):
            ctx = DiffusionContext(plan, t)
            for kind in ("XX", "YY", "XY"):
                i = rng.integers(sizes[kind[0]], size=2000)
                j = rng.integers(sizes[kind[1]], size=2000)
                want = full_model_distances(model, t, kind, i, j)
                got = diffusion_distance(ctx, kind, i, j)
                assert np.abs(got - want).max() <= 1e-12, (name, len(X), t, kind)


def test_distance_and_block_validation(setup):
    plan = setup[2]
    ctx = DiffusionContext(plan, 1)
    with pytest.raises(InputError):
        block_power(ctx, "xy")
    with pytest.raises(InputError):
        diffusion_distance(ctx, "YX", 0, 0)
    with pytest.raises(DimensionError):
        diffusion_distance(ctx, "XX", 0, M)
    with pytest.raises(DimensionError):
        diffusion_distance(ctx, "XY", M, 0)
    with pytest.raises(DimensionError):
        diffusion_distance(ctx, "YY", -1, 0)
    with pytest.raises(InputError):
        diffusion_distance(ctx, "XX", 0.5, 1)


@pytest.fixture(scope="module", params=["stored", "swapped"])
def oriented(request):
    # 40 x 55 clouds in the stored order, then exchanged, so that the model
    # of the second plan has U for the larger X
    rng = np.random.default_rng(29)
    X, Y = rng.normal(size=(40, 3)), rng.normal(size=(55, 3))
    if request.param == "swapped":
        X, Y = Y, X
    plan = transport_plan(X, Y)
    assert plan.W.shape == (len(X), len(Y))
    return X, Y, plan, DiffusionContext(plan, 2)


def test_swapped_plan_distances_index_the_callers_clouds(oriented):
    X, Y, plan, ctx = oriented
    assert (ctx.m, ctx.n) == (len(X), len(Y))
    emb = embed_from_model(spectral_model(plan, k=40), q=39, t=2)
    for kind, rows_i, rows_j in (("XX", emb.Xt, emb.Xt), ("YY", emb.Yt, emb.Yt),
                                 ("XY", emb.Xt, emb.Yt)):
        i, j = len(rows_i) - 1, len(rows_j) - 2
        assert diffusion_distance(ctx, kind, i, j) == pytest.approx(
            np.linalg.norm(rows_i[i] - rows_j[j]), abs=1e-10
        )


def test_swapped_plan_distances_equal_the_reversed_call(oriented):
    X, Y, plan, ctx = oriented
    reverse = DiffusionContext(transport_plan(Y, X), 2)
    assert diffusion_distance(ctx, "XX", 3, len(X) - 1) == diffusion_distance(
        reverse, "YY", 3, len(X) - 1
    )
    assert diffusion_distance(ctx, "XY", len(X) - 1, 5) == diffusion_distance(
        reverse, "XY", 5, len(X) - 1
    )


def test_array_distances_equal_the_scalar_loop(oriented):
    X, Y, _, ctx = oriented
    rng = np.random.default_rng(3)
    sizes = {"XX": (len(X), len(X)), "YY": (len(Y), len(Y)), "XY": (len(X), len(Y))}
    for kind, (a, b) in sizes.items():
        i, j = rng.integers(a, size=600), rng.integers(b, size=600)
        batch = diffusion_distance(ctx, kind, i, j)
        loop = [diffusion_distance(ctx, kind, int(p), int(q)) for p, q in zip(i, j)]
        assert isinstance(batch, np.ndarray) and batch.shape == (600,)
        assert np.array_equal(batch, loop)
        assert isinstance(loop[0], float)
    assert diffusion_distance(ctx, "XY", np.arange(0), np.arange(0)).shape == (0,)


def test_array_distance_validation(oriented):
    X, Y, _, ctx = oriented
    good = np.arange(5)
    for bad in (np.ones(5, dtype=bool), good.astype(float), good.reshape(1, 5),
                np.arange(4), True, 1.0):
        for i, j in ((bad, good), (good, bad)):
            with pytest.raises(InputError) as info:
                diffusion_distance(ctx, "XY", i, j)
            assert type(info.value) is InputError
    for i, j in ((np.array([0, -1]), np.array([0, 1])),
                 (np.array([0, 1]), np.array([0, len(Y)])),
                 (np.array([len(X), 0]), np.array([0, 1]))):
        with pytest.raises(DimensionError):
            diffusion_distance(ctx, "XY", i, j)
    with pytest.raises(DimensionError, match=f"j must be in \\[0, {len(X) - 1}\\]"):
        diffusion_distance(ctx, "XX", good, good + len(X) - 2)
