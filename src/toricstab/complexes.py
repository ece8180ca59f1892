"""Simplicial complexes attached to fans.

The central objects are the complex whose faces are ray subsets spanning a
cone, its minimal non-faces (primitive collections), the n-fold power
complex on vertex grid [r] x [n], and membership tests for points of
(C^n)^r against the coordinate-subspace arrangement and its complement.
"""

from dataclasses import dataclass
from itertools import chain, combinations, product


class UndefinedValueError(ValueError):
    """Raised when a quantity (e.g. the minimal primitive size) does not exist."""


class UnsupportedFanError(ValueError):
    """Raised for fans outside the supported class (e.g. a ray spanning no cone)."""


def _powerset(iterable):
    items = list(iterable)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


class SimplicialComplex:
    """Abstract simplicial complex on vertices {0, ..., vertex_count - 1}.

    Faces are stored through their maximal elements; the empty face is
    always present.  Vertices are allowed to be absent from every face.
    """

    __slots__ = ("vertex_count", "max_faces", "_minimal_cache")

    def __init__(self, vertex_count, max_faces):
        self._minimal_cache = None
        self.vertex_count = int(vertex_count)
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        faces = {frozenset(f) for f in max_faces}
        faces.add(frozenset())
        for f in faces:
            for v in f:
                if not (0 <= v < self.vertex_count):
                    raise ValueError(f"vertex {v} out of range")
        # size-descending sweep keeps maximality checks linear in the output
        maximal = []
        for f in sorted(faces, key=len, reverse=True):
            if not any(f <= g for g in maximal):
                maximal.append(f)
        self.max_faces = frozenset(maximal)

    @classmethod
    def from_faces(cls, vertex_count, faces):
        return cls(vertex_count, faces)

    def is_face(self, vertices):
        s = frozenset(vertices)
        return any(s <= f for f in self.max_faces)

    __contains__ = is_face

    def all_faces(self):
        """Materialized face set (intended for small complexes)."""
        out = set()
        for f in self.max_faces:
            out.update(frozenset(s) for s in _powerset(f))
        return frozenset(out)

    def dim(self):
        return max(len(f) for f in self.max_faces) - 1

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.max_faces == other.max_faces

    def __hash__(self):
        return hash((self.vertex_count, self.max_faces))

    def __repr__(self):
        faces = sorted(sorted(f) for f in self.max_faces)
        return f"SimplicialComplex({self.vertex_count}, {faces})"

    def to_json(self):
        return {
            "vertices": self.vertex_count,
            "max_faces": sorted(sorted(f) for f in self.max_faces),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(obj["vertices"], [frozenset(f) for f in obj["max_faces"]])


class NonFaceFamily:
    """All subsets of the vertex set that are not faces (upward closed).

    Membership and iteration are driven by the minimal non-faces; the full
    2^r table is materialized only up to 24 vertices, larger complexes are
    consumed through the streaming iterator.
    """

    _TABLE_CAP = 24

    def __init__(self, complex_):
        self.complex = complex_
        self.minimal = minimal_non_faces(complex_)

    def __contains__(self, vertices):
        s = frozenset(vertices)
        return any(p <= s for p in self.minimal)

    def iter_sets(self):
        for s in _powerset(range(self.complex.vertex_count)):
            fs = frozenset(s)
            if fs in self:
                yield fs

    @property
    def sets(self):
        r = self.complex.vertex_count
        if r > self._TABLE_CAP:
            raise ValueError(
                f"non-face table materialization capped at {self._TABLE_CAP} vertices; "
                "use iter_sets() or the minimal family"
            )
        return frozenset(self.iter_sets())


def underlying_complex(fan):
    """Complex whose faces are the ray index sets spanning a cone of the fan.

    Each ray must span a cone on its own; fans violating this are rejected.
    """
    r = len(fan.rays)
    for k in range(r):
        if frozenset((k,)) not in fan.cones:
            raise UnsupportedFanError(f"ray {k} spans no cone of the fan")
    return SimplicialComplex(r, fan.cones)


def non_faces(complex_):
    return NonFaceFamily(complex_)


def minimal_non_faces(complex_):
    """Minimal subsets that are not faces, found by size-increasing search.

    Dropping one vertex from a minimal non-face leaves a face, so none is
    larger than the largest facet plus one.
    """
    if complex_._minimal_cache is not None:
        return complex_._minimal_cache
    r = complex_.vertex_count
    found = []
    for size in range(1, min(r, complex_.dim() + 2) + 1):
        for cand in combinations(range(r), size):
            s = frozenset(cand)
            if any(p <= s for p in found):
                continue
            if not complex_.is_face(s):
                found.append(s)
    complex_._minimal_cache = frozenset(found)
    return complex_._minimal_cache


def primitive_collections(fan_or_complex):
    """Minimal ray subsets spanning no cone (minimal non-faces)."""
    k = _as_complex(fan_or_complex)
    return minimal_non_faces(k)


def r_min(fan_or_complex):
    prims = primitive_collections(fan_or_complex)
    if not prims:
        raise UndefinedValueError("no primitive collection: every ray subset spans a cone")
    return min(len(p) for p in prims)


def _as_complex(fan_or_complex):
    if isinstance(fan_or_complex, SimplicialComplex):
        return fan_or_complex
    return underlying_complex(fan_or_complex)


def power_vertex(i, j, n):
    """Grid vertex (i, j) of [r] x [n] flattened as i*n + j (0-based)."""
    return i * n + j


def complex_power(complex_, n):
    """Power complex on [r] x [n]: faces are the sets containing no full block
    sigma x [n] over a primitive collection sigma."""
    if n < 1:
        raise ValueError("n must be positive")
    r = complex_.vertex_count
    prims = minimal_non_faces(complex_)
    everything = frozenset(range(r * n))
    if not prims:
        return SimplicialComplex(r * n, [everything])
    blocks = [
        frozenset(power_vertex(i, j, n) for i in sigma for j in range(n))
        for sigma in sorted(prims, key=sorted)
    ]
    # maximal faces are complements of minimal hitting sets of the blocks;
    # every minimal hitting set arises from a one-choice-per-block selection
    candidates = {frozenset(choice) for choice in product(*blocks)}
    minimal_hits = {h for h in candidates if not any(g < h for g in candidates)}
    max_faces = [everything - h for h in minimal_hits]
    return SimplicialComplex(r * n, max_faces)


def dim_arrangement(fan, n):
    """Real dimension of the union of coordinate subspaces indexed by non-faces."""
    r = len(fan.rays)
    return 2 * n * (r - r_min(fan))


def dim_config(fan, n, k):
    """Real dimension of the labelled k-point configuration space over the arrangement."""
    r = len(fan.rays)
    return 2 * k * (1 + n * r - n * r_min(fan))


@dataclass(frozen=True)
class PointInProduct:
    """A point of (C^n)^r given by its r coordinate blocks."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(complex(z) for z in b) for b in self.blocks))
        lengths = {len(b) for b in self.blocks}
        if len(lengths) > 1:
            raise ValueError("all blocks must have equal length")

    @property
    def block_count(self):
        return len(self.blocks)

    def zero_support(self, tol=0.0):
        """Indices of zero blocks; tol=0 is the exact test for constructed points."""
        out = set()
        for i, b in enumerate(self.blocks):
            if all(abs(z) <= tol for z in b):
                out.add(i)
        return frozenset(out)


def in_polyhedral_product(point, complex_, tol=0.0):
    """True iff the zero-block support of the point is a face."""
    if point.block_count != complex_.vertex_count:
        raise ValueError(
            f"point has {point.block_count} blocks, complex has {complex_.vertex_count} vertices"
        )
    return complex_.is_face(point.zero_support(tol))


def in_arrangement(point, fan_or_complex, tol=0.0):
    """True iff the zero-block support contains a primitive collection."""
    k = _as_complex(fan_or_complex)
    if point.block_count != k.vertex_count:
        raise ValueError(
            f"point has {point.block_count} blocks, complex has {k.vertex_count} vertices"
        )
    supp = point.zero_support(tol)
    return any(p <= supp for p in minimal_non_faces(k))
