"""Dirichlet and resistance forms on finite networks.

Assembly and evaluation of symmetric Markov forms, Schur-complement traces
and effective resistance, jump/killing decompositions, compatible sequences
of nested forms (dyadic interval, Sierpinski gasket), quotient embeddings
with measure pushforward, per-vertex energy measures, and simulation of the
associated reversible continuous-time Markov chain.
"""

from .beurling_deny import (
    JumpKillingDecomposition,
    decompose,
    decomposition_to_network,
    recompose,
)
from .energy import (
    EnergyMeasure,
    counterexample_demo,
    energy_measure,
    energy_measure_identity,
    pushforward_gamma,
)
from .errors import (
    DescentError,
    FactorMemoryError,
    InfiniteResistanceError,
    NetformsError,
    NotInAlgebraError,
    NumericalError,
    SingularBlockError,
    UnsupportedRegimeError,
    ValidationError,
)
from .gelfand import (
    AlgebraSpec,
    ClosureEstimate,
    EmbeddingResult,
    PushforwardMeasure,
    VanishingReport,
    embed,
    l2_isometry_check,
    lift_function,
    pushforward,
    quotient_function,
    spectrum_closure_estimate,
    transfer_form,
    vanishes_nowhere,
)
from .network import (
    AtomicMeasure,
    FormMatrix,
    MarkovReport,
    Network,
    assemble,
    components,
    conductance_matrix,
    evaluate,
    form_to_csv,
    is_markov,
    killing_vector,
    truncate_one,
    unit_contraction,
)
from .sequences import (
    CompatibilityReport,
    CompatibleSequence,
    build_dyadic_interval,
    build_sierpinski_gasket,
    calibrate_gasket_factor,
    check_compatibility,
    energy_profile,
    limit_energy_estimate,
    load_sequence,
    save_sequence,
)
from .simulate import (
    Estimate,
    GeneratorSpec,
    OccupationResult,
    SimResult,
    build_generator,
    commute_time,
    hitting_probability,
    occupation_check,
    simulate,
)
from .trace import (
    TraceResult,
    effective_resistance,
    harmonic_extension,
    resistance_matrix,
    sup_formula_value,
    trace,
)

__version__ = "0.1.0"
