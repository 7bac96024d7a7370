"""Bottom-up tree automata over ranked terms with variables.

The package computes runs of complete deterministic tree automata,
classifies subtree occurrences as essential or fictive, decides
separability, prunes terms without changing any run result, and ships
an executable property suite over seeded random instances.
"""

from .automaton import (
    DEFAULT_BUDGET,
    Assignment,
    Automaton,
    RunTrace,
    canonical_ground,
    check_assignment,
    enumerate_assignments,
    parse_assignment,
    parse_automaton,
    partial_run,
    render_assignment,
    render_automaton,
    run,
)
from .errors import (
    ArityMismatchError,
    AutomatonSyntaxError,
    EnumerationBudgetExceeded,
    FtaError,
    InvalidPositionError,
    NotEssentialError,
    NotIndependentError,
    PremiseViolatedError,
    TermSyntaxError,
    UnboundVariableError,
    UnknownSymbolError,
    ValidationError,
)
from .essential import (
    EssentialityReport,
    SeparabilityResult,
    WitnessPair,
    essential_positions,
    essential_vars,
    is_essential_subtree,
    is_separable,
)
from .generate import DEFAULT_SIGNATURE, GenParams, SplitMix64, random_automaton, random_term
from .reduction import (
    ReductionReport,
    check_reduction,
    determining_subtree,
    fictive_from_determining,
    freeze_fictive,
    runs_equal_all,
)
from .terms import (
    ROOT,
    Node,
    Position,
    PositionSet,
    Signature,
    StateLeaf,
    Term,
    Var,
    ind_positions,
    node_count,
    parse_term,
    positions,
    render_term,
    replace_at,
    substitute,
    subterm_at,
    variables,
)
from .verify import (
    PROPERTY_NAMES,
    PropertyFailure,
    PropertyOutcome,
    PropertyReport,
    check_random_instances,
    essential_by_definition,
    replay_failure,
    verify_properties,
)

__version__ = "0.1.0"
