"""toricstab: executable combinatorics of fans, non-resultant systems, and
their stability dimensions.

The public names resolve lazily (PEP 562): ``import toricstab`` loads no
submodule, and the first access to a name imports the module that defines
it, so a ``toricctl`` call loads only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# name -> (defining module, attribute there) for the exports not defined here
_EXPORTS = {
    **{name: ("complexes", name) for name in (
        "PointInProduct", "SimplicialComplex", "complex_power", "dim_arrangement", "dim_config",
        "in_arrangement", "in_polyhedral_product", "minimal_non_faces", "primitive_collections",
        "r_min", "underlying_complex",
    )},
    **{name: ("fans", name) for name in (
        "Fan", "FanJsonError", "FanStructureError", "ValidationReport", "builtin_fan",
        "cox_group_rank", "degree_is_null", "fan_from_json", "fan_from_max_cones", "fan_power",
        "fan_to_json", "find_degree_vector", "is_complete", "is_simplicial", "is_smooth",
        "spans_lattice", "validate_fan",
    )},
    **{name: ("hermite", name) for name in (
        "HermiteSpec", "RankCheck", "bundle_rank", "confluent_vandermonde",
        "hermite_dimension", "hermite_solution", "stacked_system", "verify_rank_claim",
    )},
    **{name: ("polynomials", name) for name in (
        "GaussianRational", "MembershipResult", "PolySystem", "RationalPoly", "RootPoly",
        "derivative", "evaluate_jet", "gcd_monic", "is_member", "jet", "jet_section", "mult_part",
        "n_of", "phi_map", "stabilize", "system_from_json", "system_to_json",
    )},
    **{name: ("stability", name) for name in (
        "BandResult", "E1Support", "StabilityReport", "connectivity_bound", "e1_support",
        "min_unknown_band", "stability_dim", "stability_dim_n1", "stability_dim_projective",
        "stability_report", "truncation_dim",
    )},
}

__all__ = sorted([*_EXPORTS, "CapExceededError", "JsonPointerError", "UndefinedValueError",
                  "UnsupportedFanError"])


# each typed error carries the toricctl exit code it ends in

class JsonPointerError(ValueError):
    """A defect in an input document, located by its JSON pointer."""

    exit_code = 2  # parse error

    def __init__(self, message, pointer=""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer
        self.message = message


class UnsupportedFanError(ValueError):
    """Raised for fans outside the supported class (e.g. a ray spanning no cone)."""

    exit_code = 3  # invalid or unsupported fan


class UndefinedValueError(ValueError):
    """A quantity that does not exist, or inputs that disagree in shape or form."""

    exit_code = 4  # shape mismatch or undefined value


class CapExceededError(ValueError):
    """An enumeration was requested beyond its documented cap."""

    exit_code = 5  # enumeration cap exceeded

    @classmethod
    def check(cls, count, cap, limit):
        """Raise when count passes cap; limit reads "<what> capped at {cap} <unit>"."""
        if count > cap:
            raise cls(f"{limit.format(cap=cap)}, this one has {count}")


def read_int(value, name, least=1):
    """value, an int (not a bool) >= least, or UndefinedValueError; least None admits any int."""
    if type(value) is bool or not isinstance(value, int):
        raise UndefinedValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise UndefinedValueError(f"{name} must be >= {least}")
    return value


class Record:
    """An immutable value: a subclass lists its fields in ``__slots__``.

    Instances are built positionally or by field name, compare, print and
    convert to a dict field by field, and refuse assignment, so they are
    not hashable unless the subclass defines ``__hash__``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            # a field given twice or missing leaves a name in kwargs or a short args
            args += tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


def __getattr__(name):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
