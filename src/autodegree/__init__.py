"""Exact fixed-point degrees of automorphism actions on small finite groups.

The package computes, for a subgroup H of a finite group G, the exact
probability that a random automorphism of G fixes a random element of H,
by several independent formulas; verifies a family of upper and lower
bounds, equality characterizations and equivalences over a group catalog;
and decides autoisoclinism between pairs (H, G) by witness search.
"""

from .automorphisms import (
    AutGroup,
    Automorphism,
    SubgroupAction,
    autocentre,
    autocommutator_set,
    autocommutator_subgroup,
    compute_aut,
    compute_inn,
    fixed_subgroup,
    orbit,
    orbits_on_subgroup,
    stabilizer,
    trivial_stabilizer_set,
)
from .catalog import CatalogNameError, catalog_build
from .degree import (
    BoundCheck,
    DegreeReport,
    EqualityReport,
    EquivalenceReport,
    HypothesisError,
    bound_lower_S,
    bound_lower_commutator,
    bound_lower_main,
    bound_upper_main,
    bound_upper_nonabelian,
    bound_upper_pq,
    check_monotonicity,
    classify_equality_pq,
    classify_equality_pq2,
    converse_check,
    degree_report,
    equivalent_conditions,
    pr_commuting,
    pr_definition,
    pr_le_commuting,
    pr_via_orbits,
    pr_via_sums,
)
from .groups import (
    AxiomError,
    GroupError,
    GroupHom,
    GroupTable,
    InvariantError,
    ParentMismatchError,
    PreconditionError,
    Quotient,
    SizeCapError,
    SubgroupSet,
    TableParseError,
    direct_product,
    enumerate_subgroups,
    find_isomorphism,
    is_normal,
    iter_isomorphisms,
    parse_group_table,
    quotient_group,
    subgroup_as_group,
    subgroup_closure,
    trivial_subgroup,
    validate_group_table,
    whole_subgroup,
)
from .isoclinism import (
    IsoclinismWitness,
    decide_autoisoclinism,
    find_autoisoclinism,
    make_pair,
    verify_witness,
)
from .scan import CatalogEntry, CheckRecord, ScanReport, default_catalog, run_scan

__version__ = "0.1.0"
