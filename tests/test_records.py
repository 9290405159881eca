"""The package's record classes are plain classes with written-out ``__init__`` methods.

No class is a dataclass, so importing the package generates and compiles
no method source. Immutability comes from the one base ``groups._Frozen``.
Only GroupTable (by table) and SubgroupSet (by parent and members) compare
by value; every other record compares by identity.
"""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import autodegree
from autodegree.automorphisms import Automorphism, compute_aut
from autodegree.catalog import catalog_build
from autodegree.degree import BoundCheck, degree_report
from autodegree.groups import GroupTable, SubgroupSet, _Frozen, whole_subgroup

# __main__ runs the CLI when imported.
MODULES = [
    importlib.import_module(f"autodegree.{info.name}")
    for info in pkgutil.iter_modules(autodegree.__path__)
    if info.name != "__main__"
]


def test_no_class_is_a_dataclass():
    classes = [
        value for module in MODULES for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    assert {"GroupTable", "SubgroupSet", "DegreeReport", "ScanReport"} <= {c.__name__ for c in classes}
    assert [c.__qualname__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


def frozen_records() -> dict[str, tuple[object, str]]:
    """One instance of each guarded class, with the name of one of its fields."""
    g = catalog_build("S(3)")
    auts = compute_aut(g)
    h = whole_subgroup(g)
    return {
        "GroupTable": (g, "table"),
        "SubgroupSet": (h, "members"),
        "Automorphism": (Automorphism(g, auts.images[1]), "image"),
        "AutGroup": (auts, "images"),
        "BoundCheck": (BoundCheck("c", Fraction(1, 2), Fraction(1), "upper"), "value"),
        "DegreeReport": (degree_report(h, auts), "pr_definition"),
    }


@pytest.mark.parametrize(
    "name", ["GroupTable", "SubgroupSet", "Automorphism", "AutGroup", "BoundCheck", "DegreeReport"]
)
def test_fields_cannot_be_assigned_or_deleted(name):
    record, field = frozen_records()[name]
    assert type(record).__name__ == name and isinstance(record, _Frozen)
    value = getattr(record, field)
    with pytest.raises(AttributeError, match=field):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=field):
        delattr(record, field)
    with pytest.raises(AttributeError, match="extra"):
        record.extra = 1
    assert getattr(record, field) is value
    assert "extra" not in vars(record)


def test_group_table_equality_ignores_the_name():
    g = catalog_build("C(4)")
    renamed = GroupTable(tuple(list(g.table)), name="renamed")
    assert renamed.table is not g.table
    assert renamed == g and hash(renamed) == hash(g)
    assert GroupTable(g.table, name="C(4)") != catalog_build("C(2)×C(2)")
    assert SubgroupSet(renamed, (0, 2)) == SubgroupSet(g, (0, 2))
    assert hash(SubgroupSet(renamed, (0, 2))) == hash(SubgroupSet(g, (0, 2)))
    assert SubgroupSet(g, (0, 2)) != SubgroupSet(g, (0, 1, 2, 3))


def test_other_records_compare_by_identity():
    g = catalog_build("C(4)")
    image = compute_aut(g).images[1]
    alpha, twin = Automorphism(g, image), Automorphism(g, image)
    assert twin != alpha and alpha == alpha
    assert len({alpha, twin}) == 2
    check = BoundCheck("c", Fraction(1, 2), Fraction(1), "upper")
    assert check != BoundCheck("c", Fraction(1, 2), Fraction(1), "upper")
