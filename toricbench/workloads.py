"""The four benchmark workloads: seeded inputs, one operation, answer checks.

Every workload builds a fixed pool of items from its seed; one pass runs
each item once, in pool order.  ``run(item)`` is the operation that is
timed; ``check(item, out)`` returns None when the answer holds and a short
reason otherwise.  Checks test properties known independently of the
library (ranks, kernels, positivity, planted labels, block structure),
never a particular witness the library happens to return.

Library functions are looked up through the module objects at call time,
so the tracer's run-time replacements are seen.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

# -- shared facts -------------------------------------------------------------

# primitive collections of the builtin fans, 0-based (from the definitions)
KNOWN_PRIMS = {
    "cp(1)": [(0, 1)],
    "cp(2)": [(0, 1, 2)],
    "hirzebruch(1)": [(0, 2), (1, 3)],
    "hirzebruch(2)": [(0, 2), (1, 3)],
}


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


PRIMITIVE_H4 = [
    (a, b) for a in range(-4, 5) for b in range(-4, 5)
    if (a, b) != (0, 0) and math.gcd(a, b) == 1
]


def random_polygon_rays(rng, r):
    """r distinct primitive rays of height <= 4, in angular order, every
    consecutive pair strictly convex: the rays of a complete 2-D fan."""
    while True:
        rays = sorted(rng.sample(PRIMITIVE_H4, r), key=lambda v: math.atan2(v[1], v[0]))
        if all(_cross(rays[i], rays[(i + 1) % r]) > 0 for i in range(r)):
            return rays


def half_plane_rays(rng, r):
    """r primitive rays of height <= 4 with u . v > 0 for u = (1, 9), in
    angular order: no strictly positive relation among them exists."""
    pool = [v for v in PRIMITIVE_H4 if v[0] + 9 * v[1] > 0]
    return sorted(rng.sample(pool, r), key=lambda v: math.atan2(v[1], v[0]))


def cycle_cones(r):
    return [(i, (i + 1) % r) for i in range(r)]


def path_cones(r):
    return [(i, i + 1) for i in range(r - 1)]


def non_adjacent_pairs(r, cyclic):
    out = set()
    for i, j in combinations(range(r), 2):
        adjacent = j - i == 1 or (cyclic and (i, j) == (0, r - 1))
        if not adjacent:
            out.add(frozenset((i, j)))
    return out


def planar_smooth(rays, cones):
    return all(abs(_cross(rays[i], rays[j])) == 1 for i, j in cones)


def planar_spans(rays):
    g = 0
    for u, v in combinations(rays, 2):
        g = math.gcd(g, _cross(u, v))
    return g == 1


def degree_vector_problem(vector, rays):
    """None when vector is a strictly positive integer kernel vector of the rays."""
    if vector is None:
        return "no degree vector"
    if len(vector) != len(rays) or any(int(x) < 1 for x in vector):
        return f"degree vector {vector} not strictly positive"
    for j in range(len(rays[0])):
        if sum(int(x) * ray[j] for x, ray in zip(vector, rays)) != 0:
            return f"degree vector {vector} not in the kernel"
    return None


def power_faces_problem(max_faces, vertex_count, prims, n):
    """Check maximal faces of the n-th power complex against its definition.

    A face contains no block sigma x [n] over a primitive collection sigma;
    a maximal face becomes a non-face when any missing vertex is added.
    """
    blocks = [frozenset(i * n + j for i in sigma for j in range(n)) for sigma in prims]
    faces = [frozenset(f) for f in max_faces]
    if not faces:
        return "power complex has no faces"
    for f in faces:
        if any(b <= f for b in blocks):
            return f"power face {sorted(f)} contains a full block"
        for v in range(vertex_count):
            if v not in f and not any(b <= f | {v} for b in blocks):
                return f"power face {sorted(f)} is not maximal"
    return None


def _fraction_str(x):
    return f"{x.numerator}/{x.denominator}"


def _distinct_fractions(rng, count, height):
    out = []
    while len(out) < count:
        x = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if x not in out:
            out.append(x)
    return out


def _gaussian_pool(rng, gr, count, exclude=()):
    """Distinct Gaussian rationals of small height (gaps >= 1/16, so the
    1e-6 root clustering can never merge two of them)."""
    out = []
    seen = set(exclude)
    while len(out) < count:
        z = gr(Fraction(rng.randint(-16, 16), rng.choice((1, 2, 4))),
               Fraction(rng.randint(-16, 16), rng.choice((1, 2, 4))))
        if z not in seen:
            seen.add(z)
            out.append(z)
    return out


# -- certify -------------------------------------------------------------------

class Certify:
    """Hermite rank certificates plus, about 1 op in 12, a band minimum.

    The (k, n) grid is covered DEGREE_STRATA times per pass, with the
    degree at the midpoints of equal strata of [nk, 30], so every seed has
    the same mix of matrix shapes and only the entries differ.
    """

    name = "certify"
    BAND_FANS = (("cp(1)", 2), ("cp(2)", 3), ("hirzebruch(1)", 2), ("hirzebruch(2)", 2))
    DEGREE_STRATA = 6
    BAND_CALLS = 11

    def __init__(self, mods, seed):
        self.hermite = mods["hermite"]
        self.stability = mods["stability"]
        rng = random.Random(seed)
        items = []
        strata = self.DEGREE_STRATA
        for t in range(strata):
            for k in range(1, 6):
                for n in range(1, 5):
                    d = n * k + (30 - n * k) * (2 * t + 1) // (2 * strata)
                    points = tuple(_distinct_fractions(rng, k, 50))
                    targets = tuple(
                        tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(k))
                        for _ in range(n)
                    )
                    items.append(("cert", (points, n, d, targets)))
        for j in range(self.BAND_CALLS):
            name, rmin = self.BAND_FANS[j % len(self.BAND_FANS)]
            fan = mods["fans"].builtin_fan(name)
            n = rng.randint(2, 3)
            d_prime = rng.randint(1, 10)
            d_min = n * d_prime + rng.randint(0, n - 1)
            degrees = [d_min + rng.randint(0, 5) for _ in range(fan.ray_count)]
            degrees[rng.randrange(fan.ray_count)] = d_min
            # stability_dim + 2 = (2 n r_min - 3) floor(d_min / n)
            expected = (2 * n * rmin - 3) * d_prime
            items.append(("band", (name, fan, tuple(degrees), n, expected)))
        self.warm_items = [items[0], items[-1]]
        rng.shuffle(items)
        self.items = items

    def describe(self):
        out = []
        for kind, data in self.items:
            if kind == "cert":
                points, n, d, targets = data
                out.append([kind, [_fraction_str(p) for p in points], n, d,
                            [[_fraction_str(t) for t in row] for row in targets]])
            else:
                name, _, degrees, n, expected = data
                out.append([kind, name, list(degrees), n, expected])
        return out

    def run(self, item):
        kind, data = item
        if kind == "cert":
            points, n, d, targets = data
            claim = self.hermite.verify_rank_claim(points, n, d)
            dim = self.hermite.hermite_dimension(self.hermite.HermiteSpec(points, n, d, targets))
            return claim.rank, claim.in_regime, dim
        _, fan, degrees, n, _ = data
        band = self.stability.min_unknown_band(degrees, fan, n)
        return band.empty, band.value

    def check(self, item, out):
        kind, data = item
        if kind == "cert":
            points, n, d, _ = data
            rank, in_regime, dim = out
            nk = n * len(points)
            if rank != nk or not in_regime:
                return f"rank {rank} != n*k = {nk}"
            if dim != d - nk:
                return f"dim {dim} != d - n*k = {d - nk}"
            return None
        empty, value = out
        expected = data[4]
        if empty or value != expected:
            return f"band value {value} != stability_dim + 2 = {expected}"
        return None


# -- membership ----------------------------------------------------------------

class Membership:
    """Planted and generic systems on four fans, n in {2, 3}.

    The ITEMS systems of a pass cycle through the 16 strata (fan, n,
    planted).  A planted system has one multiplicity-n root on every
    polynomial of one primitive collection and simple roots elsewhere, so
    that collection is the only witness; a generic system has only simple
    roots.  Degrees cycle with the item index, so every seed has the same
    degree mix and only the roots differ.
    """

    name = "membership"
    FANS = ("cp(1)", "cp(2)", "hirzebruch(1)", "hirzebruch(2)")
    ITEMS = 149

    def __init__(self, mods, seed):
        self.poly = mods["polynomials"]
        poly = self.poly
        gr = poly.GaussianRational
        rng = random.Random(seed)
        fans = {name: mods["fans"].builtin_fan(name) for name in self.FANS}
        strata = [(name, n, planted) for name in self.FANS for n in (2, 3)
                  for planted in (True, False)]
        items = []
        for j in range(self.ITEMS):
            name, n, planted = strata[j % len(strata)]
            fan = fans[name]
            r = fan.ray_count
            sigma = rng.choice(KNOWN_PRIMS[name]) if planted else ()
            alpha = _gaussian_pool(rng, gr, 1)[0] if planted else None
            root_lists = []
            for i in range(r):
                turn = j // len(strata) + i
                if i in sigma:
                    simple = _gaussian_pool(rng, gr, turn % 3, exclude=(alpha,))
                    roots = [(alpha, n)] + [(z, 1) for z in simple]
                else:
                    count = 1 + turn % (n + 2)
                    simple = _gaussian_pool(rng, gr, count, exclude=(alpha,))
                    roots = [(z, 1) for z in simple]
                root_lists.append(roots)
            coeff = poly.PolySystem.coefficient_system(
                [poly.RationalPoly.from_roots(rl) for rl in root_lists])
            doc = poly.system_to_json(coeff)
            root_form = poly.PolySystem.root_system(
                [tuple((z.to_complex(), m) for z, m in rl) for rl in root_lists])
            items.append((name, fan, n, tuple(sigma), doc, root_form))
        self.warm_items = items[:len(strata)]
        rng.shuffle(items)
        self.items = items

    def describe(self):
        return [[name, n, list(sigma), doc] for name, _, n, sigma, doc, _ in self.items]

    def run(self, item):
        _, fan, n, _, doc, root_form = item
        coeff = self.poly.system_from_json(doc)
        return self.poly.is_member(coeff, fan, n), self.poly.is_member(root_form, fan, n)

    def check(self, item, out):
        sigma = item[3]
        for verdict in out:
            if not sigma:
                if not verdict.member:
                    return f"{verdict.representation}: generic system judged non-member"
            elif verdict.member:
                return f"{verdict.representation}: planted root on {sigma} missed"
            elif tuple(sorted(verdict.witness_collection)) != sigma:
                return (f"{verdict.representation}: witness collection "
                        f"{verdict.witness_collection} != planted {sigma}")
        return None


# -- fanscan -------------------------------------------------------------------

class Fanscan:
    """The in-process ``fan analyze`` bundle over several kinds of fans.

    Kinds per pass: complete 2-D r-gons (RGON_SIZES), cp(1..4), the n = 2
    power fans of cp(1) and hirzebruch(1), invalid fans with one
    overlapping cone (INVALID_SIZES), and one incomplete 4-ray fan in an
    open half plane.
    Runtime-budget exclusions are listed in NOTES.md.
    """

    # 49 items per pass: an odd count keeps the median, and 0.95 * 49 keeps
    # p95, inside one item's block of repeated samples; three r-gons of each
    # size make neighbouring costs close, so one item moving past the
    # median shifts it little
    RGON_SIZES = (4,) + tuple(r for r in range(5, 17) for _ in range(3))
    INVALID_SIZES = (5, 8, 10, 12, 14)

    name = "fanscan"
    # find_degree_vector searches a cube in kernel coordinates, so its cost
    # grows like (20 r)^(r - dim); beyond kernel dimension 2 one call can
    # exceed the run budget (NOTES.md)
    DEGREE_MAX_KERNEL_DIM = 2
    POWER_MAX_PRIMS = 5

    def __init__(self, mods, seed):
        self.fans = mods["fans"]
        self.cx = mods["complexes"]
        fans = self.fans
        rng = random.Random(seed)
        items = []
        for r in self.RGON_SIZES:
            rays = random_polygon_rays(rng, r)
            fan = fans.fan_from_max_cones(2, rays, cycle_cones(r))
            items.append(("rgon", fan, {
                "valid": True, "smooth": planar_smooth(rays, cycle_cones(r)),
                "complete": True, "positive_relation": True, "spans": planar_spans(rays),
                "prims": non_adjacent_pairs(r, cyclic=True), "r_min": 2}))
        for m in range(1, 5):
            fan = fans.builtin_fan("cp", m)
            items.append(("cp", fan, {
                "valid": True, "smooth": True, "complete": True, "positive_relation": True,
                "spans": True,
                "prims": {frozenset(range(m + 1))}, "r_min": m + 1}))
        # validate_fan on the power fan of hirzebruch(1) exceeds the run
        # budget (NOTES.md), so only the cp(1) power fan is validated
        for base_name, validate in (("cp(1)", True), ("hirzebruch(1)", False)):
            base = fans.builtin_fan(base_name)
            power = fans.fan_power(base, 2)
            prims = {frozenset(i * 2 + j for i in sigma for j in range(2))
                     for sigma in KNOWN_PRIMS[base_name]}
            items.append(("power", power, {
                # fan_power places opposite rays in one stored cone, so its
                # output violates strong convexity: expect a non-empty report
                "valid": False if validate else None, "spans": True, "prims": prims,
                "positive_relation": True,
                "r_min": min(len(p) for p in prims), "base": base,
                "base_prims": KNOWN_PRIMS[base_name],
                "reference": self.cx.underlying_complex(power)}))
        for r in self.INVALID_SIZES:
            rays = random_polygon_rays(rng, r)
            i = next(i for i in range(r) if _cross(rays[i], rays[(i + 2) % r]) > 0)
            cones = cycle_cones(r) + [(i, (i + 2) % r)]
            items.append(("invalid", fans.fan_from_max_cones(2, rays, cones), {"valid": False}))
        rays = half_plane_rays(rng, 4)
        items.append(("incomplete", fans.fan_from_max_cones(2, rays, path_cones(4)), {
            "valid": True, "smooth": planar_smooth(rays, path_cones(4)),
            "complete": False, "positive_relation": False, "spans": planar_spans(rays),
            "prims": non_adjacent_pairs(4, cyclic=False), "r_min": 2}))
        first = {}
        for item in items:
            first.setdefault(item[0], item)
        self.warm_items = list(first.values())
        rng.shuffle(items)
        self.items = items

    def describe(self):
        return [[kind, fan.dim, [list(v) for v in fan.rays], sorted(sorted(c) for c in fan.cones)]
                for kind, fan, _ in self.items]

    def run(self, item):
        kind, fan, facts = item
        fans, cx = self.fans, self.cx
        out = {}
        if facts["valid"] is not None:
            out["violations"] = len(fans.validate_fan(fan).violations)
        if kind == "invalid":
            return out
        out["spans"] = fans.spans_lattice(fan)
        if kind != "power":
            out["smooth"] = fans.is_smooth(fan)
            out["complete"] = fans.is_complete(fan)
        prims = cx.primitive_collections(fan)
        out["prims"] = set(prims)
        out["r_min"] = cx.r_min(fan)
        # the seeded complete 4-gon is left out: find_degree_vector wrongly
        # returns None for some of them, and a workload must not fail
        # (known defect, NOTES.md)
        if kind != "rgon" and fan.ray_count - fan.dim <= self.DEGREE_MAX_KERNEL_DIM:
            out["degree"] = fans.find_degree_vector(fan)
        if kind == "power":
            out["power"] = cx.complex_power(cx.underlying_complex(facts["base"]), 2)
        elif len(prims) <= self.POWER_MAX_PRIMS:
            out["power"] = cx.complex_power(cx.underlying_complex(fan), 2)
        return out

    def check(self, item, out):
        kind, fan, facts = item
        if "violations" in out and (out["violations"] == 0) != facts["valid"]:
            return f"validate_fan reported {out['violations']} violations, valid={facts['valid']}"
        if kind == "invalid":
            return None
        for key in ("spans", "smooth", "complete", "prims", "r_min"):
            if key in facts and out[key] != facts[key]:
                return f"{key}: got {out[key]!r}, expected {facts[key]!r}"
        if "degree" in out:
            if facts["positive_relation"]:
                problem = degree_vector_problem(out["degree"], fan.rays)
                if problem:
                    return f"{problem} for rays {list(fan.rays)}"
            elif out["degree"] is not None:
                return "degree vector found for rays in an open half plane"
        if "power" in out:
            power = out["power"]
            if kind == "power" and power != facts["reference"]:
                return "complex_power differs from the underlying complex of fan_power"
            prims = facts["base_prims"] if kind == "power" else facts["prims"]
            problem = power_faces_problem(power.max_faces, power.vertex_count, prims, 2)
            if problem:
                return problem
        return None


# -- cli -----------------------------------------------------------------------

def _fan_doc(rays, cones):
    return {"dim": len(rays[0]), "rays": [list(v) for v in rays],
            "max_cones": [list(c) for c in cones]}


def hirzebruch_doc(k):
    return _fan_doc([(1, 0), (0, 1), (-1, k), (0, -1)], cycle_cones(4))


class Cli:
    """Sequential ``python -m toricstab.cli`` subprocesses over a fixed mix.

    One pass runs each of the nine commands once (an odd count keeps the
    median inside one command's block of samples).  Inputs are seeded JSON documents
    written under the work directory; answers are checked by exit code and
    verdict fields, never by output bytes.
    """

    name = "cli"
    # a fixed shape and oracle seed, so the cost does not depend on the
    # benchmark seed (the seeded points alone moved it from 170 to 250 ms),
    # and enough trials to make this the slowest command: p95 then falls
    # inside its block of samples rather than between two commands
    VANDERMONDE_SHAPE = ["--k", "4", "--n", "3", "--d", "24"]
    VANDERMONDE_TRIALS = 6
    VANDERMONDE_SEED = 0

    def __init__(self, mods, seed, root, workdir):
        rng = random.Random(seed)
        self.root = root
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        poly = mods["polynomials"]
        gr = poly.GaussianRational
        docs = {}

        u = rng.choice([v for v in PRIMITIVE_H4 if v > (0, 0)])
        docs["bad_line.json"] = _fan_doc([u, (-u[0], -u[1])], [(0, 1)])
        hk = rng.randint(1, 3)
        docs["hirzebruch.json"] = hirzebruch_doc(hk)
        analyze_rays = [tuple(v) for v in docs["hirzebruch.json"]["rays"]]
        n = rng.randint(2, 3)
        degrees = [rng.randint(n, 6 * n) for _ in range(4)]
        sigma = rng.choice(KNOWN_PRIMS["hirzebruch(1)"])
        alpha = _gaussian_pool(rng, gr, 1)[0]
        root_lists = []
        for i in range(4):
            if i in sigma:
                simple = _gaussian_pool(rng, gr, rng.randint(0, 2), exclude=(alpha,))
                root_lists.append([(alpha, n)] + [(z, 1) for z in simple])
            else:
                simple = _gaussian_pool(rng, gr, rng.randint(1, n + 2), exclude=(alpha,))
                root_lists.append([(z, 1) for z in simple])
        system = poly.PolySystem.coefficient_system(
            [poly.RationalPoly.from_roots(rl) for rl in root_lists])
        docs["system.json"] = poly.system_to_json(system)
        prim_r = 10
        docs["primitives.json"] = _fan_doc(random_polygon_rays(rng, prim_r), cycle_cones(prim_r))
        power_rays = random_polygon_rays(rng, 5)
        docs["power.json"] = _fan_doc(power_rays, cycle_cones(5))
        for fname, doc in docs.items():
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
        self.docs = docs

        def path(fname):
            return os.path.join(workdir, fname)

        deg = ",".join(str(d) for d in degrees)
        d_prime = min(degrees) // n
        self.items = [
            ("fan_analyze", ["fan", "analyze", path("hirzebruch.json")],
             {"rays": analyze_rays}),
            ("fan_validate", ["fan", "validate", path("bad_line.json")], {}),
            ("stability_report", ["stability", "report", "--fan", path("hirzebruch.json"),
                                  "--degrees", deg, "--n", str(n)],
             {"stability_dim": (2 * n * 2 - 3) * d_prime - 2, "connectivity": 2 * n * 2 - 5}),
            ("stability_e1", ["stability", "e1", "--fan", path("hirzebruch.json"),
                              "--degrees", deg, "--n", str(n)],
             {"k_max": d_prime + 1}),
            ("poly_check", ["poly", "check", "--fan", path("hirzebruch.json"),
                            "--system", path("system.json"), "--n", str(n)],
             {"collection": [i + 1 for i in sigma]}),
            ("complex_primitives", ["complex", "primitives", path("primitives.json")],
             {"prims": sorted(sorted(i + 1 for i in p)
                              for p in non_adjacent_pairs(prim_r, cyclic=True))}),
            ("complex_power", ["complex", "power", path("power.json"), "--n", "2"],
             {"prims": [sorted(p) for p in non_adjacent_pairs(5, cyclic=True)]}),
            ("fan_power", ["fan", "power", path("hirzebruch.json"), "--n", "2"], {}),
            ("oracle_vandermonde", ["oracle", "vandermonde", "--trials",
                                    str(self.VANDERMONDE_TRIALS),
                                    "--seed", str(self.VANDERMONDE_SEED)]
             + self.VANDERMONDE_SHAPE, {}),
        ]
        self.warm_items = self.items[:1]
        self.env = dict(os.environ)
        self.env.pop("TORICCTL_SEED", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.prefix = [sys.executable, "-m", "toricstab.cli"]

    COMMANDS = ("fan_analyze", "fan_validate", "stability_report", "stability_e1",
                "poly_check", "complex_primitives", "complex_power", "fan_power",
                "oracle_vandermonde")

    def describe(self):
        return [self.docs, [[name, argv[:]] for name, argv, _ in self.items]]

    def run(self, item, prefix=None):
        _, argv, _ = item
        proc = subprocess.run((prefix or self.prefix) + argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item, out):
        name, _, facts = item
        code, stdout, stderr = out
        expected_code = 3 if name == "fan_validate" else 0
        if code != expected_code:
            return f"exit {code} != {expected_code}: {stderr.strip()[-200:]}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return "stdout is not a JSON document"
        if name == "fan_analyze":
            r = len(facts["rays"])
            want = sorted(sorted(i + 1 for i in p) for p in non_adjacent_pairs(r, cyclic=True))
            if doc.get("primitive_collections") != want or doc.get("r_min") != 2:
                return "fan analyze: wrong primitive collections or r_min"
            if doc.get("valid") is not True or doc.get("complete") is not True:
                return "fan analyze: complete valid fan not reported so"
            return degree_vector_problem(doc.get("degree_vector"), facts["rays"])
        if name == "fan_validate":
            if doc.get("valid") is not False or not doc.get("violations"):
                return "fan validate: line cone not reported"
            return None
        if name == "stability_report":
            for key, value in facts.items():
                if doc.get(key) != value:
                    return f"stability report: {key} {doc.get(key)!r} != {value!r}"
            return None
        if name == "stability_e1":
            statuses = {"zero", "possibly_nonzero", "tail_unknown"}
            cells = doc.get("cells") or []
            if doc.get("k_max") != facts["k_max"] or not cells:
                return "stability e1: wrong window"
            if any(c.get("status") not in statuses for c in cells):
                return "stability e1: unknown cell status"
            return None
        if name == "poly_check":
            witness = doc.get("witness") or {}
            if doc.get("member") is not False or witness.get("collection") != facts["collection"]:
                return "poly check: planted collection not reported"
            return None
        if name == "complex_primitives":
            if doc.get("primitive_collections") != facts["prims"] or doc.get("r_min") != 2:
                return "complex primitives: wrong collections"
            return None
        if name == "complex_power":
            cx = doc.get("complex") or {}
            return power_faces_problem(cx.get("max_faces", []), cx.get("vertices", 0),
                                       facts["prims"], 2)
        if name == "fan_power":
            fan = doc.get("fan") or {}
            # block placement: 4 rays in R^2 become 8 rays in R^4
            if fan.get("dim") != 4 or len(fan.get("rays", [])) != 8:
                return "fan power: wrong dimension or ray count"
            return None
        if name == "oracle_vandermonde":
            trials = self.VANDERMONDE_TRIALS
            if doc.get("ok") is not True or doc.get("passed") != trials:
                return "oracle vandermonde: suite did not pass every trial"
            return None
        return f"unknown command {name}"


WORKLOADS = {cls.name: cls for cls in (Certify, Membership, Fanscan, Cli)}
