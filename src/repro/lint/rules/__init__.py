"""Rule registry for reprolint.

``default_rules()`` returns one fresh instance of every REP rule in
id order.  New rules register here; ids are never reused.
"""

from __future__ import annotations

from repro.lint.framework import Rule
from repro.lint.rules.cache_purity import CachePurity
from repro.lint.rules.campaign_purity import CampaignPurity
from repro.lint.rules.determinism import RowDeterminism
from repro.lint.rules.determinism_taint import DeterminismTaintRule
from repro.lint.rules.facade_contract import FacadeContractRule
from repro.lint.rules.obliviousness import ObliviousnessContract
from repro.lint.rules.seed_provenance import SeedProvenanceRule
from repro.lint.rules.seeding import SeedingDiscipline
from repro.lint.rules.tolerance import ToleranceDiscipline

__all__ = ["default_rules", "RULE_CLASSES"]

RULE_CLASSES: tuple[type[Rule], ...] = (
    ToleranceDiscipline,
    ObliviousnessContract,
    CachePurity,
    SeedingDiscipline,
    RowDeterminism,
    CampaignPurity,
    DeterminismTaintRule,
    SeedProvenanceRule,
    FacadeContractRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    return [cls() for cls in RULE_CLASSES]
