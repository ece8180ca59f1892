"""Simplicial complexes attached to fans.

The central objects are the complex whose faces are ray subsets spanning a
cone, its minimal non-faces (primitive collections), the n-fold power
complex on vertex grid [r] x [n], and membership tests for points of
(C^n)^r against the coordinate-subspace arrangement and its complement.
"""

from itertools import combinations, groupby, product

from . import (CapExceededError, JsonPointerError, Record, UndefinedValueError,
               UnsupportedFanError, read_int)


class ComplexJsonError(JsonPointerError):
    """A defect in a complex document."""


# Largest facet count complex_power builds; time and memory grow with the
# count.  (P^1)^8 with n = 2 has 2^16 facets and builds in about 0.5 s.
POWER_FACET_CAP = 1 << 16

# Largest vertex count a complex document may declare.  A fan document lists
# its rays, but this count is a bare number, and the dualization and the
# power complex take time and memory in it.
VERTEX_CAP = 1 << 16

# Largest number of sets one step of minimal_non_faces grows; toricctl lists
# the 3^10 minimal non-faces of 10 missing disjoint triples in 0.9 s, 129 MB.
DUALIZATION_CAP = 1 << 16


class SimplicialComplex:
    """Abstract simplicial complex on vertices {0, ..., vertex_count - 1}.

    Faces are stored through their maximal elements; the empty face is
    always present.  Vertices are allowed to be absent from every face.
    """

    __slots__ = ("vertex_count", "max_faces", "_minimal_cache")

    def __init__(self, vertex_count, max_faces):
        self._minimal_cache = None
        self.vertex_count = read_int(vertex_count, "vertex_count", 0)
        faces = {frozenset(f) for f in max_faces}
        faces.add(frozenset())
        for f in faces:
            for v in f:
                if not (0 <= v < self.vertex_count):
                    raise ValueError(f"vertex {v} out of range")
        # distinct faces of one size never contain each other, so a face is
        # compared only with the strictly larger faces kept before its size
        maximal = []
        for _, same_size in groupby(sorted(faces, key=len, reverse=True), key=len):
            larger = tuple(maximal)
            maximal.extend(f for f in same_size if not any(f <= g for g in larger))
        self.max_faces = frozenset(maximal)

    @classmethod
    def _from_facets(cls, vertex_count, facets):
        """The complex with exactly these facets: an antichain of frozensets
        of vertices in range, so nothing is checked or filtered."""
        out = cls.__new__(cls)
        out._minimal_cache = None
        out.vertex_count = vertex_count
        out.max_faces = frozenset(facets)
        return out

    def is_face(self, vertices):
        s = frozenset(vertices)
        return any(s <= f for f in self.max_faces)

    __contains__ = is_face

    def all_faces(self):
        """Materialized face set (intended for small complexes)."""
        out = set()
        for f in self.max_faces:
            for k in range(len(f) + 1):
                out.update(frozenset(s) for s in combinations(f, k))
        return frozenset(out)

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
        """Load a complex from its JSON object, reporting defects with pointer paths."""
        if not isinstance(obj, dict):
            raise ComplexJsonError("complex document must be an object")
        for key in ("vertices", "max_faces"):
            if key not in obj:
                raise ComplexJsonError(f"missing required key {key!r}", f"/{key}")
        r = obj["vertices"]
        if type(r) is not int or r < 0:
            raise ComplexJsonError("vertices must be a non-negative integer", "/vertices")
        CapExceededError.check(r, VERTEX_CAP, "complex documents capped at {cap} vertices")
        faces = obj["max_faces"]
        if not isinstance(faces, list):
            raise ComplexJsonError("max_faces must be an array", "/max_faces")
        for i, face in enumerate(faces):
            if not isinstance(face, list):
                raise ComplexJsonError("face must be an array of vertices", f"/max_faces/{i}")
            for j, v in enumerate(face):
                if type(v) is not int or not 0 <= v < r:
                    raise ComplexJsonError(f"vertex must be an integer in 0..{r - 1}",
                                           f"/max_faces/{i}/{j}")
        return cls(r, faces)


def underlying_complex(fan):
    """K_Sigma: the fan's own complex `fan.complex`, whose facets are its
    maximal cones, so every caller shares one dualization per fan.

    Each ray must lie in a generating cone; fans violating this are rejected.
    """
    covered = frozenset().union(*fan.complex.max_faces)
    for k in range(fan.ray_count):
        if k not in covered:
            raise UnsupportedFanError(f"ray {k} spans no cone of the fan")
    return fan.complex


def minimal_non_faces(complex_):
    """Minimal subsets that are not faces.

    A set is a non-face exactly when it meets the complement of every facet,
    so the minimal non-faces are the minimal transversals of the facet
    complements.  They are built one facet at a time (Berge's incremental
    dualization): a transversal that already meets the new complement stays,
    one that misses it grows by each vertex of the complement, and a grown
    set is kept unless it contains a transversal that stayed.  A stayed set
    inside t | {v}, with t missing the complement, meets the complement in v
    alone, so t | {v} is compared only with such sets.  A step that would
    grow more than DUALIZATION_CAP sets, counted before any is built, raises
    CapExceededError.

    Sets are int bitmasks (bit v for vertex v) until the result is built.
    The complements are taken by size, then lexicographically; for facets
    that is decreasing size, then increasing mirror(F), the sum of 2^(r - v)
    over v in F: the first vertex where two complements differ is the
    highest bit where their facets' mirrors differ.
    """
    if complex_._minimal_cache is not None:
        return complex_._minimal_cache
    r = complex_.vertex_count
    top = 1 << r
    # lexicographic order keeps consecutive complements alike, and with them
    # the partial families small: on the square of (P^1)^5 they peak at 9
    # sets, against 2282 in hash order
    keyed = []
    for f in complex_.max_faces:
        mask = mirror = 0
        for v in f:
            mask |= 1 << v
            mirror |= top >> v
        keyed.append((-len(f), mirror, mask))
    keyed.sort()
    transversals = [0]
    for _, _, mask in keyed:
        edge = top - 1 - mask
        # rest[b] holds s - b for the kept s that meet edge in bit b alone
        kept, missed, rest = [], [], {}
        for t in transversals:
            hit = t & edge
            if not hit:
                missed.append(t)
                continue
            kept.append(t)
            if not hit & (hit - 1):
                rest.setdefault(hit, []).append(t ^ hit)
        CapExceededError.check(len(missed) * edge.bit_count(), DUALIZATION_CAP,
                               "dualization capped at {cap} sets per step")
        while edge:
            b = edge & -edge
            edge ^= b
            stayed = rest.get(b, ())
            for t in missed:
                for s in stayed:
                    if s & t == s:
                        break
                else:
                    kept.append(t | b)
        transversals = kept
    complex_._minimal_cache = frozenset(map(_vertex_set, transversals))
    return complex_._minimal_cache


def _vertex_set(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def primitive_collections(fan_or_complex):
    """Minimal ray subsets spanning no cone (minimal non-faces)."""
    k = _as_complex(fan_or_complex)
    return minimal_non_faces(k)


def collections_inside(complex_, within):
    """The minimal non-faces inside the vertex set within: those of the complex
    with facets F | ([r] - within), where a set is a face exactly when its
    part inside within is a face of complex_."""
    outside = frozenset(range(complex_.vertex_count)) - frozenset(within)
    if outside:
        complex_ = SimplicialComplex(complex_.vertex_count, [f | outside for f in complex_.max_faces])
    return minimal_non_faces(complex_)


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
    sigma x [n] over a primitive collection sigma.

    Its facets are ([r] x [n]) minus {(i, c(i)) : i not in F}, one for each
    facet F of the complex and each map c: [r] - F -> [n].  They form an
    antichain, and there are sum_F n^(r - |F|) of them; above
    POWER_FACET_CAP the build raises CapExceededError.
    """
    n = read_int(n, "n")
    r = complex_.vertex_count
    count = sum(n ** (r - len(f)) for f in complex_.max_faces)
    CapExceededError.check(count, POWER_FACET_CAP, "power complex capped at {cap} facets")
    everything = frozenset(range(r * n))
    max_faces = []
    for f in complex_.max_faces:
        outside = [i for i in range(r) if i not in f]
        for choice in product(range(n), repeat=len(outside)):
            max_faces.append(everything - {power_vertex(i, j, n) for i, j in zip(outside, choice)})
    return SimplicialComplex._from_facets(r * n, max_faces)


def dim_arrangement(fan, n):
    """Real dimension of the union of coordinate subspaces indexed by non-faces."""
    r = len(fan.rays)
    return 2 * read_int(n, "n") * (r - r_min(fan))


def dim_config(fan, n, k):
    """Real dimension of the labelled k-point configuration space over the arrangement."""
    n, k, r = read_int(n, "n"), read_int(k, "k", 0), len(fan.rays)
    return 2 * k * (1 + n * r - n * r_min(fan))


class PointInProduct(Record):
    """A point of (C^n)^r given by its r coordinate blocks.

    The values are kept as given: exact GaussianRationals where the point
    is exact, and a block is zero only when each of its values is exactly
    zero.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(tuple(b) for b in blocks)
        if len({len(b) for b in blocks}) > 1:
            raise UndefinedValueError("all blocks must have equal length")
        super().__init__(blocks)

    @property
    def block_count(self):
        return len(self.blocks)

    def zero_support(self):
        """Indices of the blocks whose values are all exactly zero."""
        return frozenset(i for i, b in enumerate(self.blocks) if not any(b))


def in_polyhedral_product(point, complex_):
    """True iff the zero-block support of the point is a face."""
    if point.block_count != complex_.vertex_count:
        raise UndefinedValueError(
            f"point has {point.block_count} blocks, complex has {complex_.vertex_count} vertices"
        )
    return complex_.is_face(point.zero_support())


def in_arrangement(point, fan_or_complex):
    """True iff the zero-block support contains a primitive collection."""
    k = _as_complex(fan_or_complex)
    if point.block_count != k.vertex_count:
        raise UndefinedValueError(
            f"point has {point.block_count} blocks, complex has {k.vertex_count} vertices"
        )
    supp = point.zero_support()
    return any(p <= supp for p in minimal_non_faces(k))
