import dataclasses
import warnings

import numpy as np
import pytest

import eotmaps.embedding as embedding
from eotmaps import (
    DimensionError,
    InputError,
    PlanNotConvergedError,
    TransportPlan,
    block_power,
    build_operators,
    diffusion_distance,
    embed_from_model,
    embedding_cost,
    eot_eigenmaps,
    preset,
    select_dimension,
    spectral_model,
    transport_plan,
)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(7)
    theta = rng.uniform(0, 2 * np.pi, size=12)
    phi = rng.uniform(0, 2 * np.pi, size=17)
    X = np.column_stack([np.cos(theta), np.sin(theta), 0.1 * rng.normal(size=12)])
    Y = np.column_stack([np.cos(phi), np.sin(phi), 0.1 * rng.normal(size=17)])
    return X, Y, transport_plan(X, Y)


def embed(plan, q, t=0):
    """eot_eigenmaps's route on a solved plan: the same k, so the same bits."""
    k = embedding.triplet_count(q, min(plan.shape))
    return embed_from_model(spectral_model(plan, k=k), q=q, t=t)


def brute_force_cost(Xt, Yt, W):
    total = 0.0
    for i in range(Xt.shape[0]):
        for j in range(Yt.shape[0]):
            total += W[i, j] * ((Xt[i] - Yt[j]) ** 2).sum()
    return total


def test_select_dimension_hand_oracle():
    # ratios s_{q+1}/s_{q+2}: q=1 0.9/0.89=1.011, q=2 0.89/0.3=2.97*, q=3 0.3/0.29=1.034
    assert select_dimension(np.array([1.0, 0.9, 0.89, 0.3, 0.29])) == 2


def test_select_dimension_flat_spectrum():
    # every ratio is 1: the tie goes to the smallest q
    assert select_dimension(np.array([1.0, 0.5, 0.5, 0.5, 0.5])) == 1
    assert select_dimension(np.array([1.0, 0.999])) == 1


def test_select_dimension_zero_tail_infinite_ratio():
    assert select_dimension(np.array([1.0, 0.5, 0.0])) == 1
    assert select_dimension(np.array([1.0, 0.5, 0.4, 0.0, 0.0])) == 2  # 0.4/0 beats 0.5/0.4
    assert select_dimension(np.array([1.0, 0.0, 0.0, 0.0])) == 1  # 0/0 is no gap


def test_select_dimension_reads_a_window_of_ten():
    # the largest ratio (at q = 11) lies past the window; only s_1..s_12 count
    s = np.concatenate([0.9 ** np.arange(12), [0.9**11 / 100], 0.9 ** np.arange(13, 20) / 100])
    assert select_dimension(s) == 1
    s[5:] /= 2.0  # the gap at q = 4 is now the largest within the window
    assert select_dimension(s) == 4


def test_select_dimension_validation():
    with pytest.raises(InputError):
        select_dimension(np.array([1.0]))
    with pytest.raises(InputError):
        select_dimension(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(InputError):
        select_dimension(np.array([1.0, -0.5]))
    with pytest.raises(InputError):
        select_dimension(np.array([1.0, np.nan]))


def test_spectral_model_certifies_trivial_pair(pair):
    X, Y, plan = pair
    m, n = plan.shape
    model = spectral_model(plan, k=m)
    assert abs(model.s[0] - 1.0) <= 1e-8
    np.testing.assert_allclose(model.U[:, 0], 1.0 / np.sqrt(m), atol=1e-8)
    np.testing.assert_allclose(model.V[:, 0], 1.0 / np.sqrt(n), atol=1e-8)
    assert np.all(model.s[1:] < 1.0 + 1e-12)


def test_spectral_model_rejects_unconverged_plan():
    rng = np.random.default_rng(3)
    W = rng.uniform(0.5, 1.5, size=(5, 8))
    bogus = TransportPlan(W=W, epsilon=1.0)
    with pytest.raises(PlanNotConvergedError):
        spectral_model(bogus, k=3)


def test_trivial_pair_certificate_accepts_either_joint_sign():
    u, v = np.full(5, 1 / np.sqrt(5)), np.full(8, 1 / np.sqrt(8))
    embedding._certify_trivial_pair(1.0, u, v)
    embedding._certify_trivial_pair(1.0, -u, -v)
    for s1, a, b in ((1.0, u, -v), (1.0, -u, v), (1.0 + 2e-6, u, v)):
        with pytest.raises(PlanNotConvergedError):
            embedding._certify_trivial_pair(s1, a, b)


def test_triplet_count():
    assert embedding.triplet_count(3, 100) == 4
    assert embedding.triplet_count(3, 4) == 4
    assert embedding.triplet_count("auto", 100) == 12
    assert embedding.triplet_count("auto", 8) == 8
    with pytest.raises(DimensionError):
        embedding.triplet_count(4, 4)
    with pytest.raises(InputError, match='"auto"'):
        embedding.triplet_count("bogus", 100)


def test_eot_eigenmaps_factors_q_plus_one_triplets(pair, monkeypatch):
    X, Y, _ = pair
    original, ks = embedding.truncated_svd, []

    def spy(A, k):
        ks.append(k)
        return original(A, k)

    monkeypatch.setattr(embedding, "truncated_svd", spy)
    eot_eigenmaps(X, Y, q=3)
    assert ks == [4]


def test_spectral_model_k_validation(pair):
    _, _, plan = pair
    with pytest.raises(DimensionError):
        spectral_model(plan, k=0)
    with pytest.raises(DimensionError):
        spectral_model(plan, k=min(plan.shape) + 1)
    with pytest.raises(InputError):
        spectral_model(plan, k=2.0)


def test_embedding_matches_triplet_formula(pair):
    X, Y, plan = pair
    m, n = plan.shape
    q, t = 4, 3
    model = spectral_model(plan, k=m)
    emb = embed(plan, q, t)
    factors = model.s[1 : q + 1] ** t
    np.testing.assert_allclose(emb.Xt, np.sqrt(m) * model.U[:, 1 : q + 1] * factors, atol=1e-12)
    np.testing.assert_allclose(emb.Yt, np.sqrt(n) * model.V[:, 1 : q + 1] * factors, atol=1e-12)
    np.testing.assert_array_equal(emb.s_used, model.s[1 : q + 1])
    assert emb.q == q and emb.t == t


def test_embedding_time_zero_constraints(pair):
    # at t=0 each block has zero column means, identity second-moment matrix
    X, Y, plan = pair
    emb = embed(plan, 5)
    for block in (emb.Xt, emb.Yt):
        N = block.shape[0]
        np.testing.assert_allclose(block.sum(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(block.T @ block / N, np.eye(5), atol=1e-8)


def test_embedding_time_scaling(pair):
    X, Y, plan = pair
    base = embed(plan, 4)
    later = embed(plan, 4, t=2)
    np.testing.assert_allclose(later.Xt, base.Xt * base.s_used**2, atol=1e-12)
    np.testing.assert_allclose(later.Yt, base.Yt * base.s_used**2, atol=1e-12)


def test_embedding_cost_identity(pair):
    # at t=0 the plan-weighted alignment cost telescopes to
    # 2*sqrt(mn) * sum_{k=2}^{q+1} (1 - s_k)
    X, Y, plan = pair
    m, n = plan.shape
    model = spectral_model(plan, k=m)
    for q in (1, 3, m - 1):
        emb = embed(plan, q)
        J = embedding_cost(emb, plan)
        expected = 2.0 * np.sqrt(m * n) * np.sum(1.0 - model.s[1 : q + 1])
        assert J == pytest.approx(expected, abs=1e-9)
        assert J == pytest.approx(brute_force_cost(emb.Xt, emb.Yt, plan.W), rel=1e-10)


def test_embedding_swap_round_trip(pair):
    X, Y, plan = pair
    fwd = embed(plan, 3, t=1)
    rev = eot_eigenmaps(Y, X, q=3, t=1)
    assert fwd.Xt.shape == (len(X), 3) and fwd.Yt.shape == (len(Y), 3)
    np.testing.assert_allclose(rev.Xt, fwd.Yt, atol=1e-9)
    np.testing.assert_allclose(rev.Yt, fwd.Xt, atol=1e-9)
    # the reversed plan weights the same cost
    rev_plan = transport_plan(Y, X)
    assert rev_plan.W.shape == (len(Y), len(X))
    assert embedding_cost(rev, rev_plan) == pytest.approx(
        embedding_cost(fwd, plan), rel=1e-8
    )


def test_embedding_auto_dimension(pair):
    X, Y, plan = pair
    emb = embed(plan, "auto")
    model = spectral_model(plan, k=plan.shape[0])
    assert emb.q == select_dimension(model.s[:12])
    assert 1 <= emb.q <= 10
    assert emb.Xt.shape == (len(X), emb.q)


def test_embedding_auto_rank_two_plan():
    # two far-apart singletons: the plan is 2 x 2, so q = 1 is the only
    # choice, and there is no third value to tie with
    X = np.array([[0.0], [3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emb = eot_eigenmaps(X, X, q="auto", epsilon=1.0)
    assert emb.q == 1


@pytest.mark.parametrize("q", ["auto", 1])
@pytest.mark.parametrize("m,n", [(1, 5), (5, 1)])
def test_single_point_cloud_has_no_coordinate(q, m, n):
    # min(m, n) = 1: the plan's one singular triplet is the trivial pair
    rng = np.random.default_rng(1)
    X, Y = rng.normal(size=(m, 3)), rng.normal(size=(n, 3))
    message = r"^a plan of rank min\(m, n\) = 1 has no non-trivial coordinate; each cloud needs at least two points$"
    with pytest.raises(DimensionError, match=message):
        eot_eigenmaps(X, Y, q=q)
    model = spectral_model(transport_plan(X, Y), k=1)
    with pytest.raises(DimensionError, match=message):
        embed_from_model(model, q=q, t=0)


def test_embedding_auto_floor_on_uniform_plan(monkeypatch):
    # identical points give a rank-one plan: s = [1, ~1e-16, ~1e-47, 0, ...].
    # Below the floor those are zeros, so q = 1 and its coordinate ties with
    # the next; without the floor the ratio 1e-47/0 would pick q = 2.
    X = np.zeros((6, 2))
    plan = transport_plan(X, X, epsilon=1.0)
    model = spectral_model(plan, k=6)
    with pytest.warns(RuntimeWarning, match="rotation"):
        emb = embed_from_model(model, q="auto", t=0)
    assert emb.q == 1
    monkeypatch.setattr(embedding, "SINGULAR_FLOOR", 0.0)
    assert select_dimension(model.s) == 2


@pytest.mark.parametrize("name,param", [("setting1", 8.0), ("setting2", 3.0), ("clustering", 3.0)])
def test_embedding_auto_small_on_presets(name, param):
    sim = preset(name, 300, 400, 300, 0, param)
    emb = eot_eigenmaps(sim.X.values, sim.Y.values, q="auto")
    assert 1 <= emb.q <= 10


def test_embedding_tied_values_warn():
    # the four corners of a square give a circulant kernel whose second and
    # third singular values coincide exactly
    X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    with pytest.warns(RuntimeWarning, match="rotation"):
        eot_eigenmaps(X, X, q=1, epsilon=2.0)


@pytest.fixture(scope="module")
def large_pair():
    """A 300 x 300 setting1 pair: q = 3 takes truncated_svd's subspace path."""
    sim = preset("setting1", 300, 300, 300, 0, 8.0)
    X, Y = sim.X.values, sim.Y.values
    return X, Y, transport_plan(X, Y)


def test_embedding_subspace_path_repeatable(large_pair, svd_paths):
    X, Y, _ = large_pair
    first = eot_eigenmaps(X, Y, q=3)
    second = eot_eigenmaps(X.copy(), Y.copy(), q=3)
    assert svd_paths == ["subspace", "subspace"]
    np.testing.assert_array_equal(first.Xt, second.Xt)
    np.testing.assert_array_equal(first.Yt, second.Yt)
    np.testing.assert_array_equal(first.s_used, second.s_used)


def test_embedding_subspace_path_matches_full_model(large_pair, svd_paths):
    X, Y, plan = large_pair
    emb = embed(plan, 3)
    assert svd_paths == ["subspace"]
    full = embed_from_model(spectral_model(plan, k=plan.shape[0]), q=3, t=0)
    np.testing.assert_allclose(emb.Xt, full.Xt, rtol=0, atol=1e-10)
    np.testing.assert_allclose(emb.Yt, full.Yt, rtol=0, atol=1e-10)
    np.testing.assert_allclose(emb.s_used, full.s_used, rtol=0, atol=1e-10)


def test_embedding_subspace_path_tied_values_warn(svd_paths):
    # 40 evenly spaced points on a circle give a circulant kernel whose
    # second and third singular values coincide (the first Fourier pair);
    # q = 1 asks for 3 triplets, which takes the subspace path.
    theta = 2.0 * np.pi * np.arange(40) / 40
    X = np.column_stack([np.cos(theta), np.sin(theta)])
    with pytest.warns(RuntimeWarning, match="rotation"):
        eot_eigenmaps(X, X, q=1)
    assert svd_paths == ["subspace"]


@pytest.fixture(scope="module")
def circle_plan():
    """40 evenly spaced points on a circle: s_2 = s_3, the first Fourier pair."""
    theta = 2.0 * np.pi * np.arange(40) / 40
    X = np.column_stack([np.cos(theta), np.sin(theta)])
    return transport_plan(X, X)


def test_q_plus_one_triplet_model_warns_on_a_tie(circle_plan, svd_paths):
    # the tie is between s_2 and s_next, the Ritz value the subspace path
    # hands back beside its two triplets
    model = spectral_model(circle_plan, k=2)
    assert svd_paths == ["subspace"] and model.s.size == 2
    s_true = np.linalg.svd(circle_plan.W, compute_uv=False)
    assert abs(model.s_next - s_true[2]) <= 1e-12
    with pytest.warns(RuntimeWarning, match="rotation"):
        embed_from_model(model, q=1, t=0)


def test_last_coordinate_has_no_tie_check():
    # q = rank - 1 uses every triplet, so there is no next value to tie with
    X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    model = spectral_model(transport_plan(X, X, epsilon=2.0), k=4)
    assert model.s_next is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert embed_from_model(model, q=3, t=0).q == 3


def test_embed_from_model_matches_and_validates(pair):
    X, Y, plan = pair
    m, _ = plan.shape
    model = spectral_model(plan, k=m)
    direct = eot_eigenmaps(X, Y, q=3, t=2)
    via_model = embed_from_model(model, q=3, t=2)
    np.testing.assert_array_equal(via_model.Xt, direct.Xt)
    np.testing.assert_array_equal(via_model.Yt, direct.Yt)

    with pytest.raises(DimensionError):
        embed_from_model(model, q=0, t=0)
    with pytest.raises(DimensionError):
        embed_from_model(model, q=m, t=0)
    with pytest.raises(InputError):
        embed_from_model(model, q=2, t=-1)
    small = spectral_model(plan, k=3)
    with pytest.raises(DimensionError):
        embed_from_model(small, q=5, t=0)
    with pytest.raises(DimensionError):
        embed_from_model(small, q="auto", t=0)
    with pytest.raises(InputError):
        embed_from_model(model, q="three", t=0)

    auto = embed_from_model(model, q="auto", t=0)
    np.testing.assert_array_equal(auto.Xt, eot_eigenmaps(X, Y, q="auto").Xt)


def test_embed_from_model_auto_reads_twelve_values(large_pair):
    _, _, plan = large_pair
    full = embed_from_model(spectral_model(plan, k=plan.shape[0]), q="auto", t=1)
    lead = embed_from_model(spectral_model(plan, k=12), q="auto", t=1)
    assert lead.q == full.q <= 10
    np.testing.assert_allclose(lead.Xt, full.Xt, rtol=0, atol=1e-8)
    np.testing.assert_allclose(lead.Yt, full.Yt, rtol=0, atol=1e-8)
    with pytest.raises(DimensionError):
        embed_from_model(spectral_model(plan, k=11), q="auto", t=1)


def test_eot_eigenmaps_validation(pair):
    X, Y, _ = pair
    with pytest.raises(InputError):
        eot_eigenmaps(X, Y, q="three")
    with pytest.raises(InputError):
        eot_eigenmaps(X, Y, t=1.5)
    with pytest.raises(DimensionError):
        eot_eigenmaps(X, Y, q=len(X))


@pytest.mark.parametrize("q,error", [("bogus", InputError), (True, InputError), (0, DimensionError)])
def test_eot_eigenmaps_checks_q_before_the_plan(pair, monkeypatch, q, error):
    def unreachable(X, Y, **kwargs):
        raise AssertionError("the plan was solved before q was checked")

    monkeypatch.setattr(embedding, "transport_plan", unreachable)
    X, Y, _ = pair
    with pytest.raises(error):
        eot_eigenmaps(X, Y, q=q)


def test_embedding_cost_validation(pair):
    X, Y, plan = pair
    emb = embed(plan, 2)
    with pytest.raises(InputError):
        embedding_cost(emb, transport_plan(X[:5], Y))
    with pytest.raises(InputError):
        embedding_cost("emb", plan)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda emb, plan: spectral_model(plan.W, 2), "plan must be a TransportPlan"),
        (lambda emb, plan: embed_from_model(emb, q=1, t=0), "model must be a SpectralModel"),
        (lambda emb, plan: embedding_cost(emb, plan.W), "plan must be a TransportPlan"),
        (lambda emb, plan: embedding_cost(dataclasses.replace(emb, Yt=emb.Yt[:, :1]), plan),
         "embedding blocks must share their dimension"),
        (lambda emb, plan: build_operators(plan.W), "plan must be a TransportPlan"),
        (lambda emb, plan: block_power(None, "XX"), "ctx must be a DiffusionContext"),
        (lambda emb, plan: diffusion_distance("ctx", "XY", 0, 1), "ctx must be a DiffusionContext"),
        (lambda emb, plan: eot_eigenmaps(emb.Xt, emb.Yt, q="AUTO"),
         "q must be a positive integer or \"auto\", got 'AUTO'"),
    ],
    ids=["spectral_model", "embed_from_model", "embedding_cost-plan", "embedding_cost-widths",
         "build_operators", "block_power", "diffusion_distance", "eot_eigenmaps-q"],
)
def test_wrong_argument_types_raise_input_error(pair, call, message):
    _, _, plan = pair
    with pytest.raises(InputError, match=f"^{message}$"):
        call(embed(plan, 2), plan)


def test_spectral_model_factors_follow_the_callers_order(pair):
    # a plan for the larger X is the transpose of the reversed call's, so its
    # factors are that call's with U and V exchanged, bit for bit
    X, Y, _ = pair
    Y, X = X, Y  # |X| = 17 > |Y| = 12
    swapped, direct = transport_plan(X, Y), transport_plan(Y, X)
    assert swapped.W.shape == (len(X), len(Y)) and direct.W.shape == (len(Y), len(X))
    model = spectral_model(swapped, k=len(Y))
    reference = spectral_model(direct, k=len(Y))
    assert model.U.shape == (len(X), len(Y)) and model.V.shape == (len(Y), len(Y))
    np.testing.assert_array_equal(model.s, reference.s)
    np.testing.assert_array_equal(model.U, reference.V)
    np.testing.assert_array_equal(model.V, reference.U)

    emb = embed_from_model(model, q=3, t=1)
    np.testing.assert_array_equal(emb.Xt, eot_eigenmaps(X, Y, q=3, t=1).Xt)
    assert emb.Xt.shape == (len(X), 3) and emb.Yt.shape == (len(Y), 3)


@pytest.mark.parametrize("name,param", [("setting1", 8.0), ("setting2", 3.0), ("clustering", 3.0)])
def test_permuting_the_points_permutes_the_embedding(name, param):
    # metamorphic: the coordinates follow the points, so the sign rule and
    # the orientation logic must not read the input order; both orientations
    # (the plan is solved wide, so X the larger cloud is stored transposed).
    # Measured worst case 2.2e-14 over the three presets x seeds 0-2.
    for seed in range(3):
        pair = preset(name, 300, 400, 100, seed, param)
        for X, Y in ((pair.X.values, pair.Y.values), (pair.Y.values, pair.X.values)):
            rng = np.random.default_rng(seed)
            px, py = rng.permutation(len(X)), rng.permutation(len(Y))
            ref = eot_eigenmaps(X, Y, q=3, t=1)
            got = eot_eigenmaps(X[px], Y[py], q=3, t=1)
            np.testing.assert_allclose(got.Xt, ref.Xt[px], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.Yt, ref.Yt[py], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.s_used, ref.s_used, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name,param", [("setting1", 8.0), ("clustering", 3.0)])
def test_power_of_two_scaling_leaves_the_plan_and_embedding_unchanged(name, param):
    # 2^k scales every coordinate exactly, so every squared distance and the
    # median bandwidth scale by exactly 4^k, the kernel's exponents do not
    # move, and neither may the plan, the coordinates or the singular values
    pair = preset(name, 300, 400, 100, 0, param)
    X, Y = pair.X.values, pair.Y.values
    plan, emb = transport_plan(X, Y), eot_eigenmaps(X, Y, q=3, t=1)
    for k in range(-20, 31):
        scaled_plan = transport_plan(X * 2.0**k, Y * 2.0**k)
        scaled = eot_eigenmaps(X * 2.0**k, Y * 2.0**k, q=3, t=1)
        assert scaled_plan.epsilon == plan.epsilon * 4.0**k, k
        assert np.array_equal(scaled_plan.W, plan.W), k
        for got, want in ((scaled.Xt, emb.Xt), (scaled.Yt, emb.Yt), (scaled.s_used, emb.s_used)):
            assert np.array_equal(got, want), k
