"""Detect time-reversal violation in finite-dimensional dynamical laws.

Three detection routes are implemented, each phrased as a decision
procedure returning an explicit verdict with a witness:

* a symmetric state that evolves off its symmetry ray convicts the
  Hamiltonian (``unitary_curie_check``), with a scattering variant built
  on one cross-parity amplitude (``scattering_curie_check``);
* an in/out amplitude that differs from its motion-reversed partner
  convicts the S-matrix (``kabir_check``);
* a non-degenerate energy eigenvector moved off its ray by an
  antiunitary candidate convicts that candidate
  (``wigner_principle_check``).

Scenario documents bundle matrices, symmetries, states and detector
requests into canonical JSON; ``run_scenario`` executes them and the
rules in ``oracle`` re-derive every verdict from first principles.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .builders import MODEL_NAMES, build_model_scenario, shipped_scenario_paths
from .config import DEFAULT_TOLERANCES, Tolerances
from .curie import s_matrix_inference, scattering_curie_check, unitary_curie_check
from .detectors import DETECTORS
from .errors import (
    ClassificationError,
    ConfigError,
    DimensionMismatchError,
    MisuseError,
    ParameterError,
    PremiseError,
    ScenarioError,
    TvdError,
)
from .kabir import (
    AmplitudePair,
    amplitude_pair,
    kabir_check,
    probability_asymmetry,
    transition_probability,
)
from .linalg import (
    EigenDecomposition,
    commutator,
    dagger,
    frobenius_norm,
    herm_eig,
    mat_exp,
    normalize,
    random_hermitian,
    random_unitary,
)
from .models import (
    ChainRecord,
    EdmModel,
    KaonDecayModel,
    KaonModel,
    SpinAlgebra,
    build_s_matrix,
    edm_model,
    kaon_decay_scattering_model,
    kaon_oscillation_model,
    spin_operators,
    symmetrize_invariant,
    t_symmetric_smatrix,
    wigner_eckart_chain,
)
from .runner import oracle_compare, render_text, run_request, run_scenario
from .scenario import (
    SCHEMA_VERSION,
    OracleRecord,
    Provenance,
    Report,
    Request,
    Scenario,
    VerdictRecord,
    canonical_dumps,
    parse_scenario,
    report_jsonable,
    scenario_jsonable,
    serialize_report,
    serialize_scenario,
)
from .selftest import SUITES, SuiteResult
from .symmetry import (
    InvarianceMargin,
    SymmetryTransform,
    apply,
    compose,
    conjugate_operator,
    conjugation,
    cpt_link_inference,
    invariance_margin,
    inverse,
)
from .verdict import (
    NO_CONCLUSION,
    REASON_BELOW_THRESHOLD,
    REASON_INDETERMINATE,
    REASON_PREMISE_UNMET,
    VIOLATION,
    Verdict,
)
from .wigner import (
    MINUS_IDENTITY,
    OTHER,
    PLUS_IDENTITY,
    Cluster,
    SpectrumClusters,
    TSquareClass,
    kramers_square,
    ray_displacement,
    spectrum_clusters,
    wigner_principle_check,
)

# importing a submodule binds its name here too, so modules are left out
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
