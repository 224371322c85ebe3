"""Discrete probabilistic graphical models: representation, exact and
approximate inference, and learning, with a brute-force enumeration oracle
that keeps every exact claim testable at desk scale.
"""

from .factors import (
    Factor,
    Semiring,
    Variable,
    MAX_PRODUCT,
    MIN_SUM,
    OR_AND,
    SUM_PRODUCT,
    divide,
    eliminate,
    normalize,
    product,
    reduce_factor,
)
from .graphs import (
    DirectedGraph,
    UndirectedGraph,
    d_separated,
    markov_blanket,
    max_cliques,
    max_weight_spanning_tree,
    mec_equivalent,
    mec_signature,
    moralize,
    topological_sort,
    triangulate,
)
from .models import (
    BayesianNetwork,
    ChainCRF,
    FactorGraph,
    MarkovRandomField,
    bn_to_mrf,
    enumerate_inference,
    log_joint,
    to_factor_graph,
    validate,
)
from .exact import (
    build_junction_tree,
    choose_ordering,
    jt_calibrate,
    jt_marginal,
    jt_query,
    max_product_decode,
    tree_bp,
    tree_bp_marginal,
    variable_elimination,
)
from .mapinf import (
    PairwiseEnergyModel,
    dual_decomposition,
    export_map_ilp,
    graphcut_map,
    local_search_map,
    min_cut,
    normalize_energies,
    simulated_annealing_map,
)
from .sampling import (
    SampleBatch,
    chain_analysis,
    forward_sample,
    gibbs,
    importance_estimate,
    jt_forward_sample,
    make_rng,
    metropolis_hastings,
    rejection_estimate,
)
from .variational import FactoredDistribution, elbo, kl_divergence, loopy_bp, mean_field
from .learning import (
    Dataset,
    DirichletParams,
    chow_liu,
    ci_test,
    counts,
    dirichlet_posterior,
    em_gmm,
    fit_chain_crf,
    fit_mrf,
    hill_climb,
    mle_bn,
    pc,
    pseudo_likelihood,
    score,
)
from .io import load_dataset, parse_model, serialize_model

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
