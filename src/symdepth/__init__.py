"""Exact depth, Stanley depth, and symbolic-power stability toolkit for
squarefree monomial ideals."""

import types as _types

from .complexes import HomologyProfile, SimplicialComplex, complex_of_ideal
from .depth import (
    BettiTable,
    DegreePair,
    DepthWitness,
    EngineDisagreement,
    betti_table,
    depth,
    depth_via_betti,
    depth_via_takayama,
    takayama_complex,
    upper_koszul_complex,
)
from .monomial import MonomialIdeal, unit_ideal, zero_ideal
from .sdepth import (
    INFINITY,
    BudgetExceeded,
    CharacteristicPoset,
    Interval,
    IntervalPartition,
    SdepthResult,
    characteristic_poset,
    sdepth,
    sdepth_at_least,
    split_by_variable,
)
from .stability import (
    CheckResult,
    MatroidReport,
    SequenceReport,
    StabilityReport,
    analyze_stability,
    matroid_report,
    sequence,
    verify_colon_identity,
    verify_depth_comparison,
    verify_power_membership,
    verify_sdepth_comparison,
    verify_splitting_bound,
)

# the re-exported names, not the submodules the imports above bind
__all__ = sorted(name for name, value in globals().items() if not (
    name.startswith("_") or isinstance(value, _types.ModuleType)))
__version__ = "0.3.0"
