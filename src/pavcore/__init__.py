"""Exact tools for approval-based committee elections.

Computes PAV-family committee rules, verifies core stability under the
Hare and Droop quotas, and reproduces committee-existence arguments through
exact rational LP feasibility with independently checkable integer
infeasibility certificates.
"""

from .checker import FarkasCertificate, Row, verify_farkas
from .elections import (
    CandidateSet,
    ElectionInstance,
    EnumerationLimitError,
    Profile,
    harmonic,
    pav_score,
)
from .exactlp import Feasible, Infeasible, Optimal, Unbounded
from .proofs import (
    DeviationShape,
    History,
    HistorySearchResult,
    HistoryVerdict,
    canonical_continuations,
    check_proposition1,
    delta_formula,
    enumerate_histories,
    farkas_from_theorem1,
    history_system,
    history_verdict,
    inequality_scan,
    lemma2_suite,
    verify_lemma2_structure,
)
from .rules import (
    RuleOutcome,
    global_pav,
    local_pav,
    recursive_pav,
)
from .stability import (
    DeviationReport,
    Quota,
    find_deviation,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "DeviationReport",
    "DeviationShape",
    "ElectionInstance",
    "EnumerationLimitError",
    "FarkasCertificate",
    "Feasible",
    "History",
    "HistorySearchResult",
    "HistoryVerdict",
    "Infeasible",
    "Optimal",
    "Profile",
    "Quota",
    "Row",
    "RuleOutcome",
    "Unbounded",
    "canonical_continuations",
    "check_proposition1",
    "delta_formula",
    "enumerate_histories",
    "farkas_from_theorem1",
    "find_deviation",
    "global_pav",
    "harmonic",
    "history_system",
    "history_verdict",
    "inequality_scan",
    "lemma2_suite",
    "local_pav",
    "pav_score",
    "recursive_pav",
    "verify_farkas",
    "verify_lemma2_structure",
]
