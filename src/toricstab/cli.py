"""toricctl: JSON-speaking command-line front end for the library kernels.

Exit codes: 0 ok, 1 oracle failure, 2 parse error, 3 invalid or
unsupported fan, 4 shape mismatch or undefined value, 5 enumeration cap
exceeded (power facets, e1 window, band count, jet coefficients,
dualization step, complex vertices, simplex pivots, cone pairs, vandermonde
shape or run, oracle trials; the README gives each cap) or output too large
to print, 6 internal error.  Every failure, a malformed command
line included, prints a JSON error on stderr.  All reports embed the tool
version, a digest of the canonicalized input, and the formula the verdict
rests on.  Randomized suites surface their seed.
"""

import argparse
import json
import re
import sys

# the library modules are imported inside the commands that run them, so a
# toricctl call loads only the modules its command needs
from . import UnsupportedFanError, __version__

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_PARSE = 2
EXIT_INVALID_FAN = 3
EXIT_SHAPE = 4
EXIT_CAP = 5
EXIT_INTERNAL = 6


def _canonical_hash(obj):
    import hashlib  # only the commands that print a digest load it

    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _fail(code, message, **extra):
    err = {"tool": "toricctl", "version": __version__, "error": message, **extra}
    print(json.dumps(err, sort_keys=True, indent=2), file=sys.stderr)
    raise SystemExit(code)


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


def _load_fan(path):
    """A valid simplicial fan and the document it was read from."""
    from .fans import fan_from_json, is_simplicial, validate_fan

    raw = _load_json(path)
    fan = fan_from_json(raw)
    report = validate_fan(fan)
    if not report.ok:
        _fail(EXIT_INVALID_FAN, "fan violates the fan axioms",
              violations=[v.to_dict() for v in report.violations])
    # K_Sigma, and every bound read from it, is defined for simplicial fans
    if not is_simplicial(fan):
        cone = min(sorted(c) for c in fan.generating_cones if not is_simplicial(fan, [c]))
        raise UnsupportedFanError(f"cone {cone} is not simplicial")
    return fan, raw


def _load_system(path):
    from .polynomials import system_from_json

    raw = _load_json(path)
    return system_from_json(raw), raw


def _primitives(prims):
    """The 1-based primitive collections and their least size (None when there is none)."""
    return {"indexing": "1-based", "r_min": min((len(p) for p in prims), default=None),
            "primitive_collections": sorted(sorted(i + 1 for i in c) for c in prims)}


def _int_list(text, what):
    """The integers of a comma-separated list; the library checks their values."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        _fail(EXIT_PARSE, f"{what}, got {text!r}")


def _degrees(text):
    return _int_list(text, "degrees must be a comma-separated integer list")


def _stability(degrees, fan, n):
    """The stability dict: the n = 1 dimension and its kind, or the full report."""
    from .stability import stability_dim_n1, stability_report

    if n == 1:
        value, kind = stability_dim_n1(degrees, fan)
        return {"n": 1, "stability_dim": value, "kind": kind, "degrees": list(degrees)}
    return stability_report(degrees, fan, n).to_dict()


# -- the commands, in the order of the table ----------------------------------
# Each returns its report and exit code; main stamps the report with the
# tool, version, command and provenance, and prints it.


def cmd_fan_analyze(args):
    from .complexes import primitive_collections, underlying_complex
    from .exactla import nullspace_int
    from .fans import cox_group_rank, find_degree_vector, is_complete, is_smooth, spans_lattice

    if args.degrees is None and (args.e1 or args.n is not None):
        _fail(EXIT_SHAPE, "--e1 needs --degrees" if args.e1 else "--n needs --degrees")
    fan, raw = _load_fan(args.path)
    out = {"input_hash": _canonical_hash(raw), "source": args.path, "valid": True,
           "fan": {"dim": fan.dim, "ray_count": fan.ray_count, "rays": [list(r) for r in fan.rays]}}
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
        degrees = _degrees(args.degrees)
        n = args.n or 2
        out["stability"] = _stability(degrees, fan, n)
        if args.e1:
            from .stability import e1_support

            out["e1"] = e1_support(degrees, fan, n).to_dict()
    return out, EXIT_OK


def cmd_fan_validate(args):
    from .fans import fan_from_json, validate_fan

    raw = _load_json(args.path)
    report = validate_fan(fan_from_json(raw))
    out = {"input_hash": _canonical_hash(raw), **report.to_dict()}
    return out, EXIT_OK if report.ok else EXIT_INVALID_FAN


def cmd_fan_power(args):
    from .fans import fan_power, fan_to_json

    fan, raw = _load_fan(args.path)
    power = fan_power(fan, args.n)
    return {"input_hash": _canonical_hash(raw), "n": args.n, "fan": fan_to_json(power)}, EXIT_OK


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
    return {"input_hash": _canonical_hash(raw), "n": args.n, "complex": power.to_json()}, EXIT_OK


def cmd_complex_primitives(args):
    from .complexes import primitive_collections

    complex_, raw = _load_complex_like(args.path)
    return {"input_hash": _canonical_hash(raw), **_primitives(primitive_collections(complex_))}, EXIT_OK


def cmd_poly_check(args):
    from .polynomials import is_member

    fan, fan_raw = _load_fan(args.fan)
    system, sys_raw = _load_system(args.system)
    verdict = is_member(system, fan, args.n)
    out = {"input_hash": {"fan": _canonical_hash(fan_raw), "system": _canonical_hash(sys_raw)},
           "n": args.n, "representation": verdict.representation, "member": verdict.member}
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
    return out, EXIT_OK


def cmd_poly_stabilize(args):
    from .polynomials import stabilize, system_to_json

    system, raw = _load_system(args.system)
    shifts = _int_list(args.a, "shift vector must be comma-separated integers")
    shifted = stabilize(system, shifts)
    return {"input_hash": _canonical_hash(raw), "a": shifts, "degrees_before": list(system.degrees),
            "degrees_after": list(shifted.degrees), "system": system_to_json(shifted)}, EXIT_OK


def cmd_poly_jet(args):
    from .polynomials import jet

    system, raw = _load_system(args.system)
    if system.form != "coefficient":
        _fail(EXIT_SHAPE, "jet needs a coefficient-form system file")
    jets = [[[c.to_pair() for c in entry.coeffs] for entry in jet(p, args.n)] for p in system.polys]
    return {"input_hash": _canonical_hash(raw), "n": args.n, "jets": jets}, EXIT_OK


def cmd_oracle(args):
    from . import oracles

    # a suite's flags are absent unless given, so each suite keeps its defaults
    given = {flag: value for flag, value in vars(args).items()
             if flag not in ("group", "command", "seed")}
    result = getattr(oracles, f"run_{args.command}")(args.seed, **given)
    return result.to_dict(), EXIT_OK if result.ok else EXIT_ORACLE


def cmd_stability_report(args):
    fan, raw = _load_fan(args.fan)
    out = _stability(_degrees(args.degrees), fan, args.n)
    return {"input_hash": _canonical_hash(raw), **out}, EXIT_OK


_STATUS_GLYPH = {"zero": ".", "possibly_nonzero": "?", "tail_unknown": "T"}


def _render_table(support):
    columns = range(support.k_max + 1)
    lines = ["s\\k " + " ".join(f"{k:>3d}" for k in columns)]
    lines += [f"{s:>3d} " + " ".join(f"{_STATUS_GLYPH[support.status(k, s)]:>3}" for k in columns)
              for s in range(support.s_max, support.s_min - 1, -1)]
    lines.append("legend: . zero   ? possibly_nonzero   T tail_unknown")
    return "\n".join(lines)


def cmd_stability_e1(args):
    from .stability import e1_support

    fan, raw = _load_fan(args.fan)
    degrees = _degrees(args.degrees)
    support = e1_support(degrees, fan, args.n, s_max=args.s_max)
    if args.table:
        return _render_table(support), EXIT_OK
    out = {"input_hash": _canonical_hash(raw), **support.to_dict()}
    return {**out, "degrees": degrees, "table": _render_table(support)}, EXIT_OK


# -- the command table --------------------------------------------------------

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


def _arg(*flags, **options):
    """The flags and options of one add_argument call."""
    return flags, options


_PATH = _arg("path")
_FAN = _arg("--fan", required=True)
_SYSTEM = _arg("--system", required=True)
_DEGREES = _arg("--degrees", required=True)
_N = _arg("--n", type=_positive_int, required=True)
# the oracle flags stay out of the namespace unless given
_TRIALS = _arg("--trials", type=_positive_int, default=argparse.SUPPRESS)
_SEED = _arg("--seed", type=int, default=0)

GROUPS = {
    "fan": "fan validation and predicates",
    "complex": "simplicial complex operations",
    "poly": "polynomial system operations",
    "oracle": "seeded certification suites",
    "stability": "stability dimensions and vanishing table",
}

# "group command" -> (handler, help, arguments, provenance): the one
# declaration of each command, in the order the help lists them
COMMANDS = {
    "fan analyze": (cmd_fan_analyze, "run every predicate and report a bundle", [
        _PATH, _arg("--degrees", default=None, help="attach a stability report for these degrees"),
        _arg("--n", type=_positive_int, default=None,
             help="multiplicity bound for the stability report (needs --degrees; default 2)"),
        _arg("--e1", action="store_true", help="attach the vanishing table (needs --degrees)")],
        "r_min = min size of a ray set spanning no cone; degree-null: sum_k d_k * n_k = 0"),
    "fan validate": (cmd_fan_validate, "report fan axiom violations", [_PATH],
                     "fan axioms: strong convexity, face closure, pairwise common faces"),
    "fan power": (cmd_fan_power, "block-placement power fan", [_PATH, _N],
                  "power rays place ray i in slot j; cones follow the power complex faces"),
    "complex power": (cmd_complex_power, "power complex on the vertex grid", [_PATH, _N],
                      "faces are the vertex sets containing no full block sigma x [n] over a minimal non-face sigma"),
    "complex primitives": (cmd_complex_primitives, "minimal non-faces and their least size", [_PATH],
                           "primitive collections = minimal non-faces; r_min = min cardinality"),
    "poly check": (cmd_poly_check, "bounded-multiplicity membership verdict", [_FAN, _SYSTEM, _N],
                   "member iff no primitive collection shares a root of multiplicity >= n"),
    "poly stabilize": (cmd_poly_stabilize, "degree-raising stabilization (root form)",
                       [_SYSTEM, _arg("--a", required=True, help="comma-separated shift vector")],
                       "roots move into Re < N = sum(degrees) by Re z -> h(Re z), h(x) = x for x <= N - 1 "
                       "and N - 1/(x - N + 2) above; shifts append anchor roots, degrees rise by the shift"),
    "poly jet": (cmd_poly_jet, "jet tuples of a coefficient-form system", [_SYSTEM, _N],
                 "jet entries f, f + f', ..., f + f^(n-1)"),
    "oracle vandermonde": (cmd_oracle, "Hermite rank certificates on random Vandermonde systems", [
        _TRIALS, _SEED,
        _arg("--k", type=_positive_int, default=argparse.SUPPRESS, help="fix the point count"),
        _arg("--n", type=_positive_int, default=argparse.SUPPRESS, help="fix the derivative order count"),
        _arg("--d", type=_positive_int, default=argparse.SUPPRESS, help="fix the degree")],
        "rank(stacked derivative constraint matrix) = n*k and solution dim = d - n*k"),
    "oracle band": (cmd_oracle, "band minima against their enumeration", [_TRIALS, _SEED],
                    "min band value of s - k equals stability_dim + 2"),
    "oracle complement": (cmd_oracle, "the complement dichotomy on zero patterns", [
        _arg("--trials", dest="samples", type=_positive_int, default=argparse.SUPPRESS,
             help="samples per fan"), _SEED],
        "zero-support is a face XOR zero-support contains a primitive collection"),
    "oracle jetsection": (cmd_oracle, "jets of canonical sections", [_TRIALS, _SEED],
                          "jet of the canonical section at 0 returns its defining data"),
    "stability report": (cmd_stability_report, "closed-form stability report", [_FAN, _DEGREES, _N],
                         "stability_dim = (2*n*r_min - 3)*floor(d_min/n) - 2; connectivity = 2*n*r_min - 5"),
    "stability e1": (cmd_stability_e1, "first-page vanishing table", [
        _FAN, _DEGREES, _N, _arg("--s-max", type=_non_negative_int, default=None),
        _arg("--table", action="store_true", help="print only the text render")],
        "cell zero iff 2*n*r*k - s outside [0, 2*k*(1 + n*r - n*r_min)]; tail edge at s = (2*n*r_min - 2)*d_prime"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a JSON error, as every other failure is."""

    commands = None  # the subcommand action of a group or of toricctl itself
    leading = ""  # the first argument this parser read

    def __init__(self, *args, parent=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.parent = parent  # the parser whose subcommand this one reads
        # argparse reads an argument that starts with "-" as an option unless
        # this matches it; besides -1 and -.5, a list such as -1,7 is a value
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def add_subparsers(self, **kwargs):
        self.commands = super().add_subparsers(
            parser_class=lambda **options: _Parser(parent=self, **options), **kwargs)
        return self.commands

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        self.leading = args[0] if args else ""
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # argparse sets a flag it does not know aside and reads the flag's
        # value as the command name, or passes the line on to a group that
        # then lacks its command, so the error would name the wrong fault;
        # the outermost parser whose first argument was a flag reports it
        parser, prog = self, self.prog
        while parser:
            if (parser.commands and parser.leading.startswith("-")
                    and not self._negative_number_matcher.match(parser.leading)):
                prog = parser.prog
                message = f"flags follow the command name, and {parser.leading} comes before it"
            parser = parser.parent
        _fail(EXIT_PARSE, f"{prog}: {message}")


def build_parser():
    parser = _Parser(prog="toricctl",
                     description="fan analysis, membership tests and stability tabulation")
    parser.add_argument("--version", action="version", version=f"toricctl {__version__}")
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for name, (_, help_, arguments, _) in COMMANDS.items():
        group, command = name.split()
        if group not in groups:
            # an oracle command is a suite, and the parse errors say so
            groups[group] = top.add_parser(group, help=GROUPS[group]).add_subparsers(
                dest="command", metavar="suite" if group == "oracle" else None, required=True)
        sub = groups[group].add_parser(command, help=help_)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    name = f"{args.group} {args.command}"
    handler, _, _, provenance = COMMANDS[name]
    try:
        report, code = handler(args)
        if isinstance(report, dict):
            stamp = {"tool": "toricctl", "version": __version__, "command": name,
                     "provenance": provenance}
            report = json.dumps({**stamp, **report}, sort_keys=True, indent=2)
        print(report)
        return code
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
