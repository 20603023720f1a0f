"""Unit groups of modular group algebras over prime fields.

Builds finite groups as Cayley tables, does exact arithmetic in their group
algebras over GF(p), enumerates the normalized unit group and its unitary
subgroup under the classical involution, and checks the nilpotency criterion
(group nilpotent with p-group derived subgroup) against brute force.
"""

from . import errors
from .algebra import AlgebraElement, GroupAlgebra
from .catalog import (
    DEFAULT_CATALOG,
    GroupSpec,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    parse_group_spec,
    quaternion8,
    spec_to_text,
    symmetric,
    alternating,
)
from .groups import (
    NOT_NILPOTENT,
    FiniteGroup,
    Subgroup,
    center,
    central_order_p_elements,
    centralizer,
    commutator,
    derived_subgroup,
    element_order,
    is_p_group,
    left_normed_commutator,
    lower_central_series,
    nilpotency_class,
    subgroup_generated,
)
from .report import (
    RunConfig,
    VerificationReport,
    emit_report,
    parse_config_file,
    run_catalog,
)
from .theorem import (
    Budgets,
    EquivalenceVerdict,
    WitnessRecord,
    centralizer_power_property,
    group_criterion,
    verify_engel_expansion,
    verify_equivalence,
    witness_char2,
    witness_dihedral,
    witness_skew,
)
from .units import (
    EngelOutcome,
    UnitGroup,
    as_abstract_group,
    closure_subgroup,
    engel_test,
    enumerate_units,
    filter_unitary,
    find_non_engel_pair,
    lower_central_series_of_units,
    non_engel_scan,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "Budgets",
    "DEFAULT_CATALOG",
    "EngelOutcome",
    "EquivalenceVerdict",
    "FiniteGroup",
    "GroupAlgebra",
    "GroupSpec",
    "NOT_NILPOTENT",
    "RunConfig",
    "Subgroup",
    "UnitGroup",
    "VerificationReport",
    "WitnessRecord",
    "alternating",
    "as_abstract_group",
    "build_group",
    "center",
    "central_order_p_elements",
    "centralizer",
    "centralizer_power_property",
    "closure_subgroup",
    "commutator",
    "cyclic",
    "derived_subgroup",
    "dihedral",
    "direct_product",
    "element_order",
    "emit_report",
    "engel_test",
    "enumerate_units",
    "errors",
    "filter_unitary",
    "find_non_engel_pair",
    "group_criterion",
    "is_p_group",
    "left_normed_commutator",
    "lower_central_series",
    "lower_central_series_of_units",
    "nilpotency_class",
    "non_engel_scan",
    "parse_config_file",
    "parse_group_spec",
    "quaternion8",
    "run_catalog",
    "spec_to_text",
    "subgroup_generated",
    "symmetric",
    "verify_engel_expansion",
    "verify_equivalence",
    "witness_char2",
    "witness_dihedral",
    "witness_skew",
]
