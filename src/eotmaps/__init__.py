"""Joint spectral embedding and alignment of two point clouds via entropic
optimal-transport plans.

The public API is re-exported lazily (PEP 562) so that the command-line entry
point can configure BLAS threading before numpy is first imported.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "InputError": "errors",
    "DimensionError": "errors",
    "DegenerateBandwidthError": "errors",
    "ConvergenceError": "errors",
    "NumericalError": "errors",
    "PlanNotConvergedError": "errors",
    "InvariantError": "errors",
    # linalg
    "DataMatrix": "linalg",
    "truncated_svd": "linalg",
    # transport
    "TransportPlan": "transport",
    "squared_distance_matrix": "transport",
    "median_bandwidth": "transport",
    "sinkhorn": "transport",
    "transport_plan": "transport",
    # embedding
    "SpectralModel": "embedding",
    "JointEmbedding": "embedding",
    "spectral_model": "embedding",
    "select_dimension": "embedding",
    "eot_eigenmaps": "embedding",
    "embed_from_model": "embedding",
    "embedding_cost": "embedding",
    # spectral_graph
    "BipartiteOperators": "spectral_graph",
    "build_operators": "spectral_graph",
    "predicted_spectrum": "spectral_graph",
    "quadratic_form": "spectral_graph",
    # diffusion
    "DiffusionContext": "diffusion",
    "block_power": "diffusion",
    "diffusion_distance": "diffusion",
    "truncation_bound": "diffusion",
    # simulate
    "LatentSample": "simulate",
    "UniformNuisance": "simulate",
    "GaussianNoise": "simulate",
    "BandedGaussianNoise": "simulate",
    "ObservationModelConfig": "simulate",
    "SimulatedPair": "simulate",
    "sample_torus": "simulate",
    "sample_gmm": "simulate",
    "observe": "simulate",
    "preset": "simulate",
    # metrics
    "NeighborSets": "metrics",
    "knn": "metrics",
    "jaccard_concordance": "metrics",
    "rand_index": "metrics",
    "davies_bouldin": "metrics",
    "silhouette_mean": "metrics",
    "neighbor_purity": "metrics",
    "kmeans": "metrics",
    # baselines
    "pca_embed": "baselines",
    "joint_pca_embed": "baselines",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
