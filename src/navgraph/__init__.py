"""Navigable proximity graphs with verifiable guarantees at desk scale.

Greedy routing on the graphs built here returns a (1+epsilon)-approximate
nearest neighbor from any start, for any query in the metric space, and the
package ships the verifiers that check exactly that claim on finite inputs:
navigability certificates, edge-structure laws, forced-edge lower-bound
instances, doubling witnesses and the scalar inequalities the geometric
constructions rest on.
"""

from ._util import DomainError, ceil_log2, floor_log2
from .euclid import (
    SampleConfig,
    best_of_runs,
    build_euclid_pg,
    derive_sample_config,
    expected_merged_edges,
    jackpot_condition_check,
    jackpot_query,
    merged_from_components,
    sample_jackpots,
    sparsify,
)
from .graph import (
    GraphStats,
    NavigabilityWitness,
    ProximityGraph,
    SearchTrace,
    check_navigable,
    graph_stats,
    greedy_search,
    merge_graphs,
    segment_min,
)
from .fileio import (
    file_digest,
    load_graph,
    load_points,
    load_trace,
    save_graph,
    save_points,
    save_trace,
)
from .hard import (
    BlockInstance,
    DoublingReport,
    ForcedEdgeReport,
    TreeInstance,
    block_ball_cover,
    check_block_doubling,
    check_tree_doubling,
    cover_with_half_balls,
    gen_block_instance,
    gen_tree_instance,
    tree_ball_cover,
    verify_forced_edges_blocks,
    verify_forced_edges_tree,
)
from .metrics import (
    BlockMetricSpace,
    EuclideanSpace,
    MetricSpace,
    PointSet,
    ScaledSpace,
    TreeMetricSpace,
    TriangleWitness,
    brute_force_nn,
    cross_distances,
    pairwise_min_distance,
    verify_triangle,
)
from .netpg import (
    NetPGViolation,
    NormalizedInput,
    PGParams,
    build_net_pg,
    build_net_pg_fast,
    build_net_pg_naive,
    normalize,
    pg_params,
    verify_net_pg_properties,
)
from .nets import (
    Net,
    NetHierarchy,
    NetViolation,
    build_net_hierarchy,
    greedy_r_net,
    verify_r_net,
)
from .protocol import ProtocolReport, run_query_protocol, standard_query_set
from .theta import (
    ConeFamily,
    build_cone_family,
    build_theta_graph,
    build_theta_graph_brute,
    check_fact_chord_tan,
    check_fact_reach_margin,
    check_fact_tan_linear,
    cone_contains,
    nearest_point_on_ray,
)

__version__ = "0.1.0"
