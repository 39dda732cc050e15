"""Regular-language operations built from roots and boolean connectives.

The package provides complete DFAs with canonical minimization, the
algebra of transition-function tuples and their eventually periodic
characteristic sequences, an expression language compiled to decidable
predicates, the standard-modifier construction realizing such predicates
on automata, monster witnesses, and an experiment harness measuring tight
state-complexity bounds.
"""

from .automata import (
    Dfa,
    accepts,
    accessible_part,
    check_partition,
    equivalent,
    minimize,
    nerode_partition,
    parse_dfa,
    preimage_dfa,
    print_dfa,
    to_dot,
    words_up_to,
)
from .errors import CapExceeded, ParseError
from .experiments import (
    BoundAuditReport,
    DistinguishabilityReport,
    ScRow,
    distinguishability_audit,
    gst_class_audit,
    predicted_sc,
    sc_on_witness,
    sc_table,
    unary_bound_audit,
)
from .friendly import (
    And,
    Arg,
    Compiled,
    EPredicate,
    Explicit,
    Not,
    OpExpr,
    Or,
    RootM,
    RootStar,
    Wheel,
    Xor,
    eval_expr,
    eval_pred,
    explicit_from_file,
    expr_arity,
    format_expr,
    parse_expr,
    wheel_builtin,
    word_oracle,
)
from .modifiers import (
    Modifier,
    StandardBuild,
    StateConfig,
    apply_modifier,
    build_standard,
    build_standard_detailed,
    compl_mod,
    compose_mod,
    sqrt_mod,
    standardize,
    xor_mod,
)
from .monsters import MonsterSpec, monster, reachable_tuples
from .transforms import (
    TransFn,
    TransTuple,
    compose,
    fn_token,
    identity,
    tn_generators,
    token_fn,
    tuple_compose,
    tuple_identity,
)
from .upseq import (
    CharTuple,
    UPSeq,
    at,
    char_seq,
    char_tuple,
    format_char_tuple,
    format_upseq,
    parse_char_tuple,
    parse_eset,
    parse_upseq,
    scale,
    scale_tuple,
    upseq_to_unary_dfa,
)

__version__ = "0.1.0"
