"""Shift spaces, flow-equivalence invariants, and the moves between them."""

from types import ModuleType as _ModuleType

from .entropy import (
    EntropyEstimate,
    boost_entropy_construction,
    boost_entropy_pipeline,
    entropy_word_count,
    perron_entropy,
    scale_entropy_construction,
    sofic_entropy,
)
from .errors import (
    InvalidInput,
    NonConvergenceError,
    PartialBlockMapError,
    PreconditionError,
    ShiftSpaceError,
)
from .graphs import DirectedGraph, Edge, essentialize, from_adjacency, path_count, scc_decompose
from .invariants import (
    SignedBFGroup,
    SmithDecomposition,
    bowen_franks,
    determinant,
    expansion_move,
    franks_decide,
    smith_normal_form,
    verify_elementary_equivalence,
)
from .moves import (
    MovePipeline,
    Recode,
    SymbolContraction,
    SymbolExpansion,
    WordContraction,
    admits_nontrivial_overlaps,
    deciding_length_bound,
    is_nonoverlapping,
    pipeline_apply_periodic,
    pipeline_apply_word,
    recode,
    symbol_contract,
    symbol_expand,
    word_contract,
)
from .presentations import (
    LabeledGraph,
    determinize,
    extend_to_synchronizing,
    focus_set,
    follower_table,
    is_right_resolving,
    labeled_graph,
    minimal_right_resolving,
    sft_presentation,
)
from .sft import (
    ForbiddenSetSFT,
    apply_block_map,
    contains_word,
    enumerate_language,
    full_shift,
    is_empty,
    is_irreducible,
    language_count,
    sft,
    sft_to_edge_shift,
    simplify,
    to_m_step,
)
from .sgap import (
    Classification,
    EventuallyPeriodicGaps,
    FEVerdict,
    FiniteGaps,
    FullShift,
    SampledGaps,
    SGapSet,
    SoficTag,
    classify_type,
    detect_eventual_periodicity,
    fe_equal,
    fe_invariant,
    forbidden_words,
    minimal_form,
    shift_set,
)
from .words import Alphabet, PeriodicOrbit, Word

# Every public name the imports above bind, without the submodules they
# bind as a side effect.
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
