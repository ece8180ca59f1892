"""The result and value classes: construction, equality, immutability.

The immutable ones derive from `toricstab.Record`; these tests pin the
behaviour callers rely on, so no class depends on a generated method.
"""

import ast
import importlib
import json
import pathlib
import pkgutil
from fractions import Fraction

import pytest

import toricstab
from toricstab import (
    Fan,
    GaussianRational,
    HermiteSpec,
    PointInProduct,
    PolySystem,
    RationalPoly,
    Record,
    RootPoly,
    ValidationReport,
    builtin_fan,
    bundle_rank,
    degree_is_null,
    e1_support,
    in_arrangement,
    in_polyhedral_product,
    is_member,
    min_unknown_band,
    stability_report,
    system_from_json,
    verify_rank_claim,
)
from toricstab.complexes import (
    CapExceededError,
    ComplexJsonError,
    JsonPointerError,
    UndefinedValueError,
    UnsupportedFanError,
)
from toricstab.fans import FanJsonError, FanStructureError, Violation
from toricstab.hermite import RankCheck
from toricstab.oracles import SuiteResult
from toricstab.polynomials import MembershipResult, SystemJsonError

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _record_classes():
    """Name -> class of every Record subclass, once each module is imported."""
    for module in pkgutil.iter_modules(toricstab.__path__):
        importlib.import_module(f"toricstab.{module.name}")
    found, stack = {}, [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            found[cls.__name__] = cls
            stack.append(cls)
    return found


def _frozen_instances():
    """Class name -> (an instance, one of its fields)."""
    h1 = builtin_fan("hirzebruch(1)")
    one = RationalPoly.from_roots([(GaussianRational(1), 2)])
    return {
        "PointInProduct": (PointInProduct(((1, 0), (0, 0))), "blocks"),
        "Fan": (h1, "rays"),
        "Violation": (Violation("ray", "ray 0 is the zero vector"), "kind"),
        "RankCheck": (verify_rank_claim([Fraction(1), Fraction(2)], 2, 5), "rank"),
        "HermiteSpec": (HermiteSpec((1, 2), 1, 3, ((0, 0),)), "points"),
        "GaussianRational": (GaussianRational(1, 2), "re"),
        "RationalPoly": (one, "pairs"),
        "PolySystem": (PolySystem.coefficient_system([one]), "polys"),
        "RootPoly": (RootPoly([(1, 2)]), "roots"),
        "MembershipResult": (MembershipResult(member=True, representation="root"), "member"),
        "StabilityReport": (stability_report((5, 7, 5, 12), h1, 2), "r_min"),
        "E1Support": (e1_support((5, 7, 5, 12), h1, 2), "cells"),
        "BandResult": (min_unknown_band((5, 7, 5, 12), h1, 2), "value"),
    }


@pytest.mark.parametrize("name", sorted(_record_classes()))
def test_frozen_classes_refuse_assignment(name):
    # every Record subclass needs an example instance here
    value, field = _frozen_instances()[name]
    assert type(value).__name__ == name
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_fans_with_the_same_rays_and_cones_are_equal_and_hash_equal():
    a = Fan(2, ((1, 0), (0, 1), (-1, -1)), [frozenset((0, 1)), frozenset((1, 2)), frozenset((2, 0))])
    b = Fan(2, [[1, 0], [0, 1], [-1, -1]], [[2, 0], [], (2, 1), [1, 0]])
    assert a.complex is not None  # a cached complex changes nothing
    assert a == b and hash(a) == hash(b)
    assert a == builtin_fan("cp(2)")
    assert a != Fan(2, ((1, 0), (0, 1), (-1, -1)), [(0, 1), (1, 2)])
    assert a != Fan(2, ((0, 1), (1, 0), (-1, -1)), [(0, 1), (1, 2), (2, 0)])
    assert len({a, b}) == 1


def test_fan_repr_leaves_out_the_complex():
    fan = Fan(1, [[1], [-1]], [[0], [1]])
    fan.complex
    assert repr(fan) == f"Fan(dim=1, rays=((1,), (-1,)), generating_cones={fan.generating_cones!r})"
    assert "complex" not in repr(fan).lower()


def test_records_print_and_convert_field_by_field():
    check = verify_rank_claim([Fraction(1), Fraction(2)], 3, 6)
    assert repr(check) == "RankCheck(rank=6, expected=6, in_regime=True)"
    assert repr(MembershipResult(True, "root")) == (
        "MembershipResult(member=True, representation='root', witness_collection=None, "
        "witness_factor=None, witness_root=None)")
    assert Violation("ray", "ray 0 is the zero vector").to_dict() == {
        "kind": "ray", "detail": "ray 0 is the zero vector"}
    # the JSON bytes of the report's former hand-written to_dict
    report = stability_report((5, 7, 5, 12), builtin_fan("hirzebruch(1)"), 2)
    assert json.dumps(report.to_dict()) == (
        '{"r_min": 2, "d_min": 5, "d_prime": 2, "stability_dim": 8, "connectivity": 3, '
        '"degree_null": true, "n": 2, "degrees": [5, 7, 5, 12]}')


def test_fan_keeps_its_cached_complex():
    fan = builtin_fan("cp(1)")
    assert fan.complex is fan.complex


def test_mutable_records_do_not_share_their_failure_lists():
    first, second = ValidationReport(), ValidationReport()
    first.add("ray", "ray 0 is the zero vector")
    assert not first.ok and second.ok and second.violations == []
    one, two = SuiteResult("band", 0, 1), SuiteResult("band", 0, 1)
    one.record(0, False)
    assert one.failures == [{"trial": 0, "detail": "failed"}] and two.failures == []
    two.record(0, True)
    assert (one.passed, two.passed) == (0, 1) and two.ok and not one.ok
    assert SuiteResult("band", 0, 0).vacuous


def test_rank_checks_and_membership_results_keep_their_truthiness(cp1):
    assert RankCheck(rank=3, expected=3, in_regime=True)
    assert not RankCheck(rank=2, expected=3, in_regime=True)
    assert RankCheck(2, 3, False) == RankCheck(rank=2, expected=3, in_regime=False)
    assert RankCheck(2, 3, False) != RankCheck(2, 3, True)
    member = is_member(system_from_json({"roots": [[[1, 0, 1]], [[2, 0, 1]]]}), cp1, 2)
    heavy = is_member(system_from_json({"roots": [[[1, 0, 2]], [[1, 0, 3]]]}), cp1, 2)
    assert member and member == MembershipResult(member=True, representation="root")
    assert not heavy and heavy.witness_collection == (0, 1)
    assert heavy == MembershipResult(False, "root", (0, 1), None, GaussianRational(1))
    assert heavy != MembershipResult(False, "root", (0, 1), None, GaussianRational(2))
    assert heavy != member


def test_hermite_spec_validates_and_normalises():
    spec = HermiteSpec([1, "1/2"], 1, 3, [[2, Fraction(1, 3)]])
    assert spec.points == (Fraction(1), Fraction(1, 2))
    assert spec.targets == ((Fraction(2), Fraction(1, 3)),)
    assert (spec.order, spec.degree) == (1, 3)
    for args, message in [
        (((1, 1), 1, 3, ((0, 0),)), "points must be distinct"),
        (((1, 2), 0, 3, ()), "order must be >= 1"),
        (((1, 2), 1, 0, ((0, 0),)), "degree must be >= 1"),
        (((1, 2), 1, 3, ((0,),)), "targets must be an order x k grid"),
        (((1, 2), 2, 3, ((0, 0),)), "targets must be an order x k grid"),
    ]:
        with pytest.raises(ValueError, match=message):
            HermiteSpec(*args)


def test_points_and_root_polys_normalise_their_input():
    point = PointInProduct([[0, 0], (1, 2)])
    assert point.blocks == ((0, 0), (1, 2)) and point.zero_support() == {0}
    assert point == PointInProduct(((0, 0), (1, 2))) != PointInProduct(((0, 0), (1, 3)))
    with pytest.raises(ValueError, match="equal length"):
        PointInProduct(((0,), (1, 2)))
    roots = RootPoly([(1, 1), (1 + 0j, 2), (GaussianRational(0, 1), 1)]).roots
    assert roots == ((GaussianRational(1), 3), (GaussianRational(0, 1), 1))
    assert all(type(a) is GaussianRational for a, _ in roots)
    with pytest.raises(ValueError, match="multiplicities must be >= 1"):
        RootPoly([(1, 0)])


@pytest.mark.parametrize("error,code", [
    (JsonPointerError, 2), (ComplexJsonError, 2), (FanJsonError, 2), (SystemJsonError, 2),
    (FanStructureError, 2),
    (UnsupportedFanError, 3), (UndefinedValueError, 4), (CapExceededError, 5),
])
def test_typed_errors_carry_their_exit_codes(error, code):
    assert error.exit_code == code


H1 = builtin_fan("hirzebruch(1)")


@pytest.mark.parametrize("call,message", [
    (lambda: degree_is_null(H1, (1, 2)), "expected 4 degrees, got 2"),
    (lambda: PolySystem("root", (), (1,)), "degree vector length must match polynomial count"),
    (lambda: PointInProduct(((0,), (1, 2))), "all blocks must have equal length"),
    (lambda: in_polyhedral_product(PointInProduct(((0, 0),)), H1.complex),
     "point has 1 blocks, complex has 4 vertices"),
    (lambda: in_arrangement(PointInProduct(((0, 0),)), H1),
     "point has 1 blocks, complex has 4 vertices"),
    (lambda: bundle_rank((5, 7, 5, 12), 2, 2, 3), "expected 3 degrees, got 4"),
], ids=["degree_is_null", "PolySystem", "PointInProduct", "in_polyhedral_product",
        "in_arrangement", "bundle_rank"])
def test_shape_mismatches_are_undefined_values(call, message):
    # inputs that disagree in shape end in exit 4, whichever entry point reads them
    with pytest.raises(UndefinedValueError) as caught:
        call()
    assert str(caught.value) == message


def test_records_fill_their_fields_positionally_or_by_name():
    assert Violation("ray", "d") == Violation(kind="ray", detail="d") == Violation("ray", detail="d")
    assert Violation("ray", "d") != Violation("ray", "e")
    assert Violation("ray", "d") != ("ray", "d")
    for args, kwargs in [((), {}), (("ray",), {}), (("ray", "d", "x"), {}),
                         (("ray",), {"kind": "ray"}), (("ray",), {"detail": "d", "extra": 1}),
                         ((), {"detail": "d"})]:
        with pytest.raises(TypeError, match="takes the fields kind, detail"):
            Violation(*args, **kwargs)
    with pytest.raises(TypeError):
        hash(Violation("ray", "d"))


def test_only_record_defines_setattr():
    # every immutable class inherits the one refusal, from Record
    offenders = []
    for path in sorted((ROOT / "src" / "toricstab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name != "Record" and any(
                    isinstance(item, ast.FunctionDef) and item.name == "__setattr__"
                    for item in node.body):
                offenders.append(f"{path.name}:{node.name}")
    assert offenders == []


def test_traced_methods_stay_in_their_class_bodies():
    # toricbench/tracer.py reads these methods from cls.__dict__, so a
    # method moved to a base class would break the benchmark's tracer
    tree = ast.parse((ROOT / "toricbench" / "tracer.py").read_text(encoding="utf-8"))
    (methods,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "METHODS" for t in node.targets)]
    assert methods
    for module, cls_name, meth in methods:
        assert meth in vars(getattr(importlib.import_module(f"toricstab.{module}"), cls_name))
