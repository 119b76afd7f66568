"""Numerical laboratory for Dirichlet-type approximation via lattice flows."""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DegenerateBasisError,
    EmptySupportError,
    ParameterError,
)
from .lattice import (
    LatticeBasis,
    ShortestVectorResult,
    ThickRegion,
    random_unimodular,
    reduce_basis,
    shortest_supnorm_batch,
    shortest_supnorm_k2_batch,
    shortest_vector_supnorm,
    shortest_with_region,
    trichotomy,
)
from .flows import (
    DIRecord,
    DIReport,
    DirichletWitness,
    LinearFormSystem,
    Solvability,
    Verdict,
    WeightVector,
    ba_quality,
    di_classify,
    dirichlet_solvable_direct,
    dirichlet_solvable_lattice,
    flow_matrix,
    flowed_bases,
    flowed_basis,
    golden_system,
    liouville_system,
    random_forms,
    trajectory_lambda1,
    witness_holds,
)
from .exterior import (
    CoefficientCertificate,
    ExteriorVector,
    affine_pairing,
    big_coefficient_certificate,
    flow_action,
    index_sets,
    shear_action,
    weight_exponent,
)
from .measures import (
    Ball,
    CGoodEstimate,
    FedererEstimate,
    LebesgueBox,
    MapSpec,
    NonplanarResult,
    SelfSimilarIFS,
    cgood_empirical,
    drv_manifolds,
    epsilon0_registry,
    federer_empirical,
    nondivergence_veronese,
    nonplanar_test,
    sample,
)
from .experiments import (
    CounterexampleCase,
    CounterexampleRecord,
    DecayScan,
    EquidistReport,
    EscapeCell,
    HaarSampleK2,
    ProfileSeries,
    equidist_test_k2,
    escape_table,
    haar_sample_k2,
    no_drift_counterexample,
    nondiv_decay_scan,
    singular_profile,
    thick_fraction_k2,
)
from .config import (
    RunConfig,
    parse_config,
    parse_forms,
    parse_map,
    parse_measure,
    parse_trajectory,
    parse_weight_vector,
)
from .reports import (
    FORMAT_VERSION,
    render_csv,
    render_jsonl,
    write_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
