"""toricctl: JSON-speaking command-line front end for the library kernels.

Exit codes: 0 ok, 1 oracle failure, 2 parse error, 3 invalid or
unsupported fan, 4 shape mismatch or undefined value, 5 enumeration cap
exceeded (power facets, e1 window, jet coefficients, dualization step,
complex vertices, simplex pivots, vandermonde shape or run) or output too
large to print, 6 internal error.  Every failure, a malformed command
line included, prints a JSON error on stderr.  All reports embed the tool
version, a digest of the canonicalized input, and the formula the verdict
rests on.  Randomized suites surface their seed.
"""

import argparse
import json
import sys

# the library modules are imported inside the commands that run them, so a
# toricctl call loads only the modules its command needs
from . import __version__

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_PARSE = 2
EXIT_INVALID_FAN = 3
EXIT_SHAPE = 4
EXIT_CAP = 5
EXIT_INTERNAL = 6

PROVENANCE = {
    "fan analyze": "r_min = min size of a ray set spanning no cone; degree-null: sum_k d_k * n_k = 0",
    "fan validate": "fan axioms: strong convexity, face closure, pairwise common faces",
    "fan power": "power rays place ray i in slot j; cones follow the power complex faces",
    "complex power": "faces are the vertex sets containing no full block sigma x [n] over a minimal non-face sigma",
    "complex primitives": "primitive collections = minimal non-faces; r_min = min cardinality",
    "poly check": "member iff no primitive collection shares a root of multiplicity >= n",
    "poly stabilize": "roots move into Re < N = sum(degrees) by Re z -> h(Re z), h(x) = x for x <= N - 1 "
                      "and N - 1/(x - N + 2) above; shifts append anchor roots, degrees rise by the shift",
    "poly jet": "jet entries f, f + f', ..., f + f^(n-1)",
    "oracle vandermonde": "rank(stacked derivative constraint matrix) = n*k and solution dim = d - n*k",
    "oracle band": "min band value of s - k equals stability_dim + 2",
    "oracle complement": "zero-support is a face XOR zero-support contains a primitive collection",
    "oracle jetsection": "jet of the canonical section at 0 returns its defining data",
    "stability report": "stability_dim = (2*n*r_min - 3)*floor(d_min/n) - 2; connectivity = 2*n*r_min - 5",
    "stability e1": "cell zero iff 2*n*r*k - s outside [0, 2*k*(1 + n*r - n*r_min)]; tail edge at s = (2*n*r_min - 2)*d_prime",
}


def _canonical_hash(obj):
    import hashlib  # only the commands that print a digest load it

    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _fail(code, message, **extra):
    err = {"tool": "toricctl", "version": __version__, "error": message}
    err.update(extra)
    print(json.dumps(err, sort_keys=True, indent=2), file=sys.stderr)
    raise SystemExit(code)


def _meta(command, input_hash=None):
    out = {
        "tool": "toricctl",
        "version": __version__,
        "command": command,
        "provenance": PROVENANCE[command],
    }
    if input_hash is not None:
        out["input_hash"] = input_hash
    return out


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(EXIT_PARSE, f"malformed JSON in {path}: {exc}", pointer=f"/line/{exc.lineno}")
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an int literal beyond the digits Python
        # reads, or arrays nested beyond its recursion limit
        _fail(EXIT_PARSE, f"unreadable JSON in {path}: {exc}")


def _load_fan(path, require_valid=True):
    from .complexes import UnsupportedFanError
    from .fans import fan_from_json, is_simplicial, validate_fan

    raw = _load_json(path)
    fan = fan_from_json(raw)
    report = validate_fan(fan)
    if require_valid and not report.ok:
        _fail(EXIT_INVALID_FAN, "fan violates the fan axioms",
              violations=[v.to_dict() for v in report.violations])
    # K_Sigma, and every bound read from it, is defined for simplicial fans
    if require_valid and not is_simplicial(fan):
        cone = min(sorted(c) for c in fan.generating_cones if not is_simplicial(fan, [c]))
        raise UnsupportedFanError(f"cone {cone} is not simplicial")
    return fan, raw, report


def _load_system(path):
    from .polynomials import system_from_json

    raw = _load_json(path)
    return system_from_json(raw), raw


def _primitives(prims):
    """The 1-based primitive collections and their least size (None when there is none)."""
    return {"indexing": "1-based", "r_min": min((len(p) for p in prims), default=None),
            "primitive_collections": sorted(sorted(i + 1 for i in c) for c in prims)}


def _parse_degrees(text, fan):
    try:
        degrees = tuple(int(x) for x in text.split(","))
    except ValueError:
        _fail(EXIT_PARSE, f"degrees must be a comma-separated integer list, got {text!r}")
    if len(degrees) != fan.ray_count:
        _fail(EXIT_SHAPE, f"expected {fan.ray_count} degrees, got {len(degrees)}")
    if any(d < 1 for d in degrees):
        _fail(EXIT_SHAPE, "all degrees must be >= 1")
    return degrees


def _stability(degrees, fan, n):
    """The stability dict: the n = 1 dimension and its kind, or the full report."""
    from .stability import stability_dim_n1, stability_report

    if n == 1:
        value, kind = stability_dim_n1(degrees, fan)
        return {"n": 1, "stability_dim": value, "kind": kind, "degrees": list(degrees)}
    return stability_report(degrees, fan, n).to_dict()


# -- fan ----------------------------------------------------------------------

def cmd_fan_analyze(args):
    from .complexes import primitive_collections, underlying_complex
    from .exactla import nullspace_int
    from .fans import cox_group_rank, find_degree_vector, is_complete, is_smooth, spans_lattice

    if args.degrees is None and (args.e1 or args.n is not None):
        _fail(EXIT_SHAPE, "--e1 needs --degrees" if args.e1 else "--n needs --degrees")
    fan, raw, _ = _load_fan(args.path)
    out = _meta("fan analyze", _canonical_hash(raw))
    out["source"] = args.path
    out["fan"] = {"dim": fan.dim, "ray_count": fan.ray_count, "rays": [list(r) for r in fan.rays]}
    out["valid"] = True
    out["smooth"] = is_smooth(fan)
    out["complete"] = is_complete(fan)
    out["spans_lattice"] = spans_lattice(fan)
    complex_ = underlying_complex(fan)
    out["complex"] = complex_.to_json()
    out.update(_primitives(primitive_collections(complex_)))
    vector = find_degree_vector(fan)
    out["degree_vector"] = list(vector) if vector is not None else None
    out["degree_search_exhausted"] = vector is None and bool(nullspace_int(fan.ray_matrix()))
    out["cox_rank"] = cox_group_rank(fan) if out["spans_lattice"] else None
    if args.degrees is not None:
        degrees = _parse_degrees(args.degrees, fan)
        n = args.n or 2
        out["stability"] = _stability(degrees, fan, n)
        if args.e1:
            from .stability import e1_support

            out["e1"] = e1_support(degrees, fan, n).to_dict()
    _emit(out)
    return EXIT_OK


def cmd_fan_validate(args):
    fan, raw, report = _load_fan(args.path, require_valid=False)
    out = _meta("fan validate", _canonical_hash(raw))
    out.update(report.to_dict())
    _emit(out)
    return EXIT_OK if report.ok else EXIT_INVALID_FAN


def cmd_fan_power(args):
    from .fans import fan_power, fan_to_json

    fan, raw, _ = _load_fan(args.path)
    power = fan_power(fan, args.n)
    out = _meta("fan power", _canonical_hash(raw))
    out["n"] = args.n
    out["fan"] = fan_to_json(power)
    _emit(out)
    return EXIT_OK


# -- complex ------------------------------------------------------------------

def _load_complex_like(path):
    from .complexes import SimplicialComplex, underlying_complex

    raw = _load_json(path)
    if isinstance(raw, dict) and "rays" in raw:
        from .fans import fan_from_json

        return underlying_complex(fan_from_json(raw)), raw
    if isinstance(raw, dict) and "max_faces" in raw:
        return SimplicialComplex.from_json(raw), raw
    _fail(EXIT_PARSE, "document is neither a fan (rays) nor a complex (max_faces)")


def cmd_complex_power(args):
    from .complexes import complex_power

    complex_, raw = _load_complex_like(args.path)
    power = complex_power(complex_, args.n)
    out = _meta("complex power", _canonical_hash(raw))
    out["n"] = args.n
    out["complex"] = power.to_json()
    _emit(out)
    return EXIT_OK


def cmd_complex_primitives(args):
    from .complexes import primitive_collections

    complex_, raw = _load_complex_like(args.path)
    out = _meta("complex primitives", _canonical_hash(raw))
    out.update(_primitives(primitive_collections(complex_)))
    _emit(out)
    return EXIT_OK


# -- poly ---------------------------------------------------------------------

def cmd_poly_check(args):
    from .polynomials import is_member

    fan, fan_raw, _ = _load_fan(args.fan)
    system, sys_raw = _load_system(args.system)
    verdict = is_member(system, fan, args.n)
    out = _meta("poly check")
    out["input_hash"] = {"fan": _canonical_hash(fan_raw), "system": _canonical_hash(sys_raw)}
    out["n"] = args.n
    out["representation"] = verdict.representation
    out["member"] = verdict.member
    if verdict.member:
        out["witness"] = None
    else:
        witness = {"collection": [i + 1 for i in verdict.witness_collection], "indexing": "1-based"}
        if verdict.witness_factor is not None:
            witness["common_factor"] = [c.to_pair() for c in verdict.witness_factor.coeffs]
        if verdict.witness_root is not None:
            witness["common_root"] = verdict.witness_root.to_pair()
        out["witness"] = witness
    if args.n > max(system.degrees):
        out["note"] = "contractible regime: n exceeds every degree, every system is a member"
    _emit(out)
    return EXIT_OK


def cmd_poly_stabilize(args):
    from .polynomials import stabilize, system_to_json

    system, raw = _load_system(args.system)
    try:
        shifts = [int(x) for x in args.a.split(",")]
    except ValueError:
        _fail(EXIT_PARSE, f"shift vector must be comma-separated integers, got {args.a!r}")
    shifted = stabilize(system, shifts)
    out = _meta("poly stabilize", _canonical_hash(raw))
    out["a"] = shifts
    out["degrees_before"] = list(system.degrees)
    out["degrees_after"] = list(shifted.degrees)
    out["system"] = system_to_json(shifted)
    _emit(out)
    return EXIT_OK


def cmd_poly_jet(args):
    from .polynomials import jet

    system, raw = _load_system(args.system)
    if system.form != "coefficient":
        _fail(EXIT_SHAPE, "jet needs a coefficient-form system file")
    out = _meta("poly jet", _canonical_hash(raw))
    out["n"] = args.n
    out["jets"] = [
        [[c.to_pair() for c in entry.coeffs] for entry in jet(p, args.n)]
        for p in system.polys
    ]
    _emit(out)
    return EXIT_OK


# -- oracle -------------------------------------------------------------------

def cmd_oracle(args):
    from . import oracles

    # pass only the flags given, so each suite keeps its own defaults
    given = {flag: value for flag, value in (("k", args.k), ("n", args.n), ("d", args.d))
             if value is not None}
    if given and args.suite != "vandermonde":
        _fail(EXIT_PARSE, f"oracle {args.suite} reads no " + ", ".join(f"--{f}" for f in given))
    if args.trials is not None:
        given["samples" if args.suite == "complement" else "trials"] = args.trials
    result = getattr(oracles, f"run_{args.suite}")(args.seed, **given)
    out = _meta(f"oracle {args.suite}")
    out.update(result.to_dict())
    _emit(out)
    return EXIT_OK if result.ok else EXIT_ORACLE


# -- stability ----------------------------------------------------------------

def cmd_stability_report(args):
    fan, raw, _ = _load_fan(args.fan)
    degrees = _parse_degrees(args.degrees, fan)
    out = _meta("stability report", _canonical_hash(raw))
    out.update(_stability(degrees, fan, args.n))
    _emit(out)
    return EXIT_OK


_STATUS_GLYPH = {"zero": ".", "possibly_nonzero": "?", "tail_unknown": "T"}


def _render_table(support):
    lines = []
    header = "s\\k " + " ".join(f"{k:>3d}" for k in range(support.k_max + 1))
    lines.append(header)
    for s in range(support.s_max, support.s_min - 1, -1):
        row = f"{s:>3d} " + " ".join(
            f"{_STATUS_GLYPH[support.status(k, s)]:>3}" for k in range(support.k_max + 1)
        )
        lines.append(row)
    lines.append("legend: . zero   ? possibly_nonzero   T tail_unknown")
    return "\n".join(lines)


def cmd_stability_e1(args):
    from .stability import e1_support

    fan, raw, _ = _load_fan(args.fan)
    degrees = _parse_degrees(args.degrees, fan)
    support = e1_support(degrees, fan, args.n, s_max=args.s_max)
    if args.table:
        print(_render_table(support))
        return EXIT_OK
    out = _meta("stability e1", _canonical_hash(raw))
    out.update(support.to_dict())
    out["degrees"] = list(degrees)
    out["table"] = _render_table(support)
    _emit(out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def _int_at_least(least, kind):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a JSON error, as every other failure is."""

    def error(self, message):
        _fail(EXIT_PARSE, f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="toricctl",
        description="fan analysis, membership tests and stability tabulation",
    )
    parser.add_argument("--version", action="version", version=f"toricctl {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    fan = top.add_parser("fan", help="fan validation and predicates").add_subparsers(
        dest="command", required=True
    )
    p = fan.add_parser("analyze", help="run every predicate and report a bundle")
    p.add_argument("path")
    p.add_argument("--degrees", default=None, help="attach a stability report for these degrees")
    p.add_argument("--n", type=_positive_int, default=None,
                   help="multiplicity bound for the stability report (needs --degrees; default 2)")
    p.add_argument("--e1", action="store_true", help="attach the vanishing table (needs --degrees)")
    p.set_defaults(func=cmd_fan_analyze)
    p = fan.add_parser("validate", help="report fan axiom violations")
    p.add_argument("path")
    p.set_defaults(func=cmd_fan_validate)
    p = fan.add_parser("power", help="block-placement power fan")
    p.add_argument("path")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_fan_power)

    cx = top.add_parser("complex", help="simplicial complex operations").add_subparsers(
        dest="command", required=True
    )
    p = cx.add_parser("power", help="power complex on the vertex grid")
    p.add_argument("path")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_complex_power)
    p = cx.add_parser("primitives", help="minimal non-faces and their least size")
    p.add_argument("path")
    p.set_defaults(func=cmd_complex_primitives)

    poly = top.add_parser("poly", help="polynomial system operations").add_subparsers(
        dest="command", required=True
    )
    p = poly.add_parser("check", help="bounded-multiplicity membership verdict")
    p.add_argument("--fan", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_poly_check)
    p = poly.add_parser("stabilize", help="degree-raising stabilization (root form)")
    p.add_argument("--system", required=True)
    p.add_argument("--a", required=True, help="comma-separated shift vector")
    p.set_defaults(func=cmd_poly_stabilize)
    p = poly.add_parser("jet", help="jet tuples of a coefficient-form system")
    p.add_argument("--system", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_poly_jet)

    oracle = top.add_parser("oracle", help="seeded certification suites")
    oracle.add_argument("suite", choices=("vandermonde", "band", "complement", "jetsection"))
    oracle.add_argument("--trials", type=_positive_int, default=None)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--k", type=_positive_int, default=None, help="fix the point count (vandermonde)")
    oracle.add_argument("--n", type=_positive_int, default=None, help="fix the derivative order count (vandermonde)")
    oracle.add_argument("--d", type=_positive_int, default=None, help="fix the degree (vandermonde)")
    oracle.set_defaults(func=cmd_oracle)

    stab = top.add_parser("stability", help="stability dimensions and vanishing table").add_subparsers(
        dest="command", required=True
    )
    p = stab.add_parser("report", help="closed-form stability report")
    p.add_argument("--fan", required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_stability_report)
    p = stab.add_parser("e1", help="first-page vanishing table")
    p.add_argument("--fan", required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--s-max", type=_non_negative_int, default=None)
    p.add_argument("--table", action="store_true", help="print only the text render")
    p.set_defaults(func=cmd_stability_e1)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:
        # each typed library error carries its exit code; any other
        # exception is an internal error
        code = getattr(exc, "exit_code", EXIT_INTERNAL)
        if code == EXIT_INTERNAL:
            _fail(code, f"internal error: {exc}", exception=type(exc).__name__)
        extra = {"pointer": exc.pointer} if hasattr(exc, "pointer") else {}
        _fail(code, getattr(exc, "message", str(exc)), **extra)


if __name__ == "__main__":
    sys.exit(main())
