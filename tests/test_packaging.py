"""The package runs on the standard library alone; numpy is a test oracle."""

import ast
import functools
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import toricstab

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# the names `from toricstab import *` exported when the package imported
# every module eagerly, by the module that defines them ("toricstab" for the
# package itself); the lazy table must keep them all
EXPORTS = {
    "toricstab": ["CapExceededError", "JsonPointerError", "UndefinedValueError",
                  "UnsupportedFanError"],
    "complexes": ["PointInProduct", "SimplicialComplex", "complex_power", "dim_arrangement",
                  "dim_config", "in_arrangement", "in_polyhedral_product", "minimal_non_faces",
                  "primitive_collections", "r_min", "underlying_complex"],
    "fans": ["Fan", "FanJsonError", "FanStructureError", "ValidationReport", "builtin_fan",
             "cox_group_rank", "degree_is_null", "fan_from_json", "fan_from_max_cones",
             "fan_power", "fan_to_json", "find_degree_vector", "is_complete", "is_simplicial",
             "is_smooth", "spans_lattice", "validate_fan"],
    "hermite": ["HermiteSpec", "RankCheck", "bundle_rank", "confluent_vandermonde",
                "hermite_dimension", "hermite_solution", "stacked_system", "verify_rank_claim"],
    "polynomials": ["GaussianRational", "MembershipResult", "PolySystem", "RationalPoly",
                    "RootPoly", "derivative", "evaluate_jet", "gcd_monic", "is_member", "jet",
                    "jet_section", "mult_part", "n_of", "phi_map", "stabilize",
                    "system_from_json", "system_to_json"],
    "stability": ["BandResult", "E1Support", "StabilityReport", "connectivity_bound",
                  "e1_support", "min_unknown_band", "stability_dim", "stability_dim_n1",
                  "stability_dim_projective", "stability_report", "truncation_dim"],
}


# stdlib modules that only slow start-up: dataclasses loads inspect, which
# loads ast, dis and tokenize
HEAVY = {"dataclasses", "inspect"}
# the other modules _loaded_after reports besides the package's own
WATCHED = HEAVY | {"hashlib", "numpy"}


def _loaded_after(code):
    """The toricstab modules and the WATCHED modules that a fresh
    interpreter holds after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code += ("\nimport sys\n"
             f"print(*sorted(m for m in sys.modules if m in {sorted(WATCHED)!r}"
             " or m.startswith('toricstab')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("toricstab.") for m in proc.stdout.splitlines()[-1].split()}


def _loaded_by_command(argv, exit_code=None):
    # exit_code: the SystemExit a refused command ends in; None for a report
    return _loaded_after(
        "import contextlib, io\n"
        "from toricstab.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        "    try:\n"
        f"        main({argv!r})\n"
        "    except SystemExit as exc:\n"
        f"        assert exc.code == {exit_code!r}, exc.code\n"
        "    else:\n"
        f"        assert {exit_code!r} is None\n")


@functools.cache
def _bare():
    """The WATCHED modules a bare interpreter already holds."""
    return _loaded_after("pass")


def test_package_import_loads_no_submodule():
    assert _loaded_after("import toricstab") == {"toricstab"} | _bare()


def test_exports_resolve_to_their_modules():
    expected = {name: (module, name) for module, names in EXPORTS.items() for name in names}
    assert sorted(toricstab.__all__) == sorted(expected)
    assert set(toricstab.__all__) <= set(dir(toricstab))
    for name, (module, attr) in expected.items():
        home = importlib.import_module(module if module == "toricstab" else f"toricstab.{module}")
        assert getattr(toricstab, name) is getattr(home, attr)
    with pytest.raises(AttributeError):
        toricstab.no_such_name


def test_cli_import_loads_neither_numpy_nor_oracles():
    # the start-up path of toricctl: each typed error carries its exit code,
    # so cli needs no library module until a command runs
    assert _loaded_after("import toricstab.cli") == {"toricstab", "cli"} | _bare()


def test_cli_import_leaves_the_membership_certificate_unloaded():
    # commands that test no membership load neither polynomials nor the
    # modular certificate (is_member imports it on first use); only the
    # stability commands load stability
    h1 = str(FIXTURES / "hirzebruch1.json")
    commands = [
        ["fan", "analyze", h1],
        ["fan", "validate", str(FIXTURES / "bad_line.json")],
        ["complex", "primitives", str(FIXTURES / "hirzebruch2.json")],
        ["oracle", "vandermonde", "--trials", "2", "--k", "2", "--n", "2", "--d", "6"],
        ["stability", "report", "--fan", h1, "--degrees", "5,7,5,12", "--n", "2"],
    ]
    bare = _bare()
    for argv in commands:
        loaded = _loaded_by_command(argv)
        assert not loaded & {"polynomials", "modular", "numpy"}, argv
        assert ("stability" in loaded) == (argv[0] == "stability"), argv
        assert loaded & HEAVY <= bare, argv
        assert argv[0] != "oracle" or "fans" not in loaded, argv


# the modules each command loads: the nine commands of the cli benchmark,
# plus the complex-document and polynomial-only paths, the other three
# oracle suites and a vandermonde run past its cell cap; only the
# commands that print an input_hash load hashlib
FAN_LAYER = {"complexes", "exactla", "fans", "hashlib"}
# a vandermonde run past its cell cap, which exits 5 before it draws a point
CAPPED_RUN = ["oracle", "vandermonde", "--d", "2000"]
COMMAND_MODULES = [
    (["fan", "analyze", "hirzebruch1.json"], FAN_LAYER),
    (["fan", "validate", "bad_line.json"], FAN_LAYER),
    (["fan", "power", "hirzebruch1.json", "--n", "2"], FAN_LAYER),
    (["stability", "report", "--fan", "hirzebruch1.json", "--degrees", "5,7,5,12", "--n", "2"],
     FAN_LAYER | {"stability"}),
    (["stability", "e1", "--fan", "hirzebruch1.json", "--degrees", "5,7,5,12", "--n", "2"],
     FAN_LAYER | {"stability"}),
    (["poly", "check", "--fan", "cp1.json", "--system", "system_planted_cp1.json", "--n", "2"],
     FAN_LAYER | {"polynomials", "modular"}),
    (["complex", "primitives", "hirzebruch2.json"], FAN_LAYER),
    (["complex", "power", "hirzebruch2.json", "--n", "2"], FAN_LAYER),
    (["oracle", "vandermonde", "--trials", "2", "--k", "2", "--n", "2", "--d", "6"],
     {"oracles", "hermite", "exactla"}),
    (["oracle", "band", "--trials", "2"],
     {"oracles", "hermite", "exactla", "complexes", "fans", "stability"}),
    (["oracle", "complement", "--trials", "2"], {"oracles", "hermite", "exactla", "complexes", "fans"}),
    (["oracle", "jetsection", "--trials", "2"],
     {"oracles", "hermite", "exactla", "complexes", "polynomials"}),
    (["complex", "primitives", "complex_ring.json"], {"complexes", "hashlib"}),
    (["poly", "jet", "--system", "system_generic_cp1.json", "--n", "3"],
     {"complexes", "hashlib", "polynomials"}),
    (CAPPED_RUN, {"oracles", "hermite", "exactla"}),
]
# a command and its fixture name a case; a repeated one is named by its argv
COMMAND_IDS = []
for argv, _ in COMMAND_MODULES:
    name = " ".join(argv[:2] + [a for a in argv if a.endswith(".json")][-1:])
    COMMAND_IDS.append(" ".join(argv) if name in COMMAND_IDS else name)


@pytest.mark.parametrize("argv,modules", COMMAND_MODULES, ids=COMMAND_IDS)
def test_each_command_loads_only_its_layers(argv, modules):
    # no command loads dataclasses or inspect, unless a bare interpreter does
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    loaded = _loaded_by_command(argv, 5 if argv == CAPPED_RUN else None)
    assert loaded == {"toricstab", "cli"} | modules | _bare()


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    assert any(dep.startswith("numpy") for dep in project["optional-dependencies"]["test"])


def test_library_raises_only_typed_errors():
    # cross-checks live in oracles and the tests, so no library module
    # asserts or names AssertionError
    offenders = []
    for path in sorted((ROOT / "src" / "toricstab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_main_maps_typed_errors_to_exit_codes():
    # cli.main maps the library's typed errors by their exit_code, so no
    # other function in cli.py catches one of them
    typed = {"JsonPointerError", "FanJsonError", "SystemJsonError", "FanStructureError",
             "UnsupportedFanError", "UndefinedValueError", "CapExceededError"}
    tree = ast.parse((ROOT / "src" / "toricstab" / "cli.py").read_text(encoding="utf-8"))
    offenders = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for handler in ast.walk(func):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                names = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(handler.type) if isinstance(n, ast.Attribute)}
                if names & typed:
                    offenders.append(f"{func.name}:{handler.lineno}")
    assert offenders == []


def test_cli_catches_only_where_it_reads_input():
    # main maps every typed error, so the other except clauses of cli.py
    # only read input: the JSON loader, argparse's integer type and the
    # integer lists of --degrees and --a
    tree = ast.parse((ROOT / "src" / "toricstab" / "cli.py").read_text(encoding="utf-8"))
    handlers = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler):
                handlers.append((top.name, ast.unparse(node.type)))
    assert sorted(handlers) == [
        ("_int_at_least", "ValueError"),
        ("_int_list", "ValueError"),
        ("_load_json", "(ValueError, RecursionError)"),
        ("_load_json", "OSError"),
        ("_load_json", "json.JSONDecodeError"),
        ("main", "BrokenPipeError"),
        ("main", "Exception"),
    ]


def test_every_cap_is_named_in_readme():
    # each cap is named in the README and read in the module that defines
    # it, and each class whose exit code is 2 to 5 derives from the typed
    # error of toricstab/__init__.py that carries that code
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    caps, unread, classes = set(), [], []
    for path in sorted((ROOT / "src" / "toricstab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = "toricstab" if path.stem == "__init__" else f"toricstab.{path.stem}"
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.append(getattr(importlib.import_module(module), node.name))
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and (
                        target.id.endswith("_CAP") and not target.id.startswith("EXIT_")
                        or target.id in ("SIMPLEX_MAX_ITER", "POINT_POOL")):
                    caps.add(target.id)
                    if target.id not in read:
                        unread.append(f"{path.name}:{target.id}")
    assert len(caps) >= 12
    assert sorted(name for name in caps if f"`{name}`" not in readme) == []
    assert unread == []
    bases = {cls.exit_code: cls for cls in classes
             if cls.__module__ == "toricstab" and hasattr(cls, "exit_code")}
    assert sorted(bases) == [2, 3, 4, 5]
    assert [cls.__name__ for cls in classes if getattr(cls, "exit_code", None) in bases
            and not issubclass(cls, bases[cls.exit_code])] == []


def test_every_command_is_named_in_readme():
    # the command table declares each command once; the README's command
    # block runs each of them
    from toricstab.cli import COMMANDS

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line interface")[1].split("```sh\n")[1].split("```")[0]
    examples = {" ".join(line.split()[1:3]) for line in block.splitlines()}
    assert len(COMMANDS) == 14
    assert sorted(set(COMMANDS) - examples) == []


def test_gaussian_rationals_have_one_arithmetic():
    # Q(i)[z] is computed on the int pairs of RationalPoly alone:
    # GaussianRational is a boundary value, and modular reads only pairs
    forbidden = {f"__{prefix}{op}__" for op in ("add", "sub", "mul", "truediv", "pow")
                 for prefix in ("", "r", "i")} | {"__neg__", "conjugate"}
    tree = ast.parse((ROOT / "src" / "toricstab" / "polynomials.py").read_text(encoding="utf-8"))
    (gaussian,) = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "GaussianRational"]
    defined = {node.name for node in gaussian.body if isinstance(node, ast.FunctionDef)}
    defined |= {target.id for node in gaussian.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert defined & forbidden == set()
    tree = ast.parse((ROOT / "src" / "toricstab" / "modular.py").read_text(encoding="utf-8"))
    reads = [f"{node.attr}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "re", "im")]
    assert reads == []


def test_fan_geometry_and_exact_kernels_use_no_floats():
    # certification paths stay exact: no cmath import, no float literal and
    # no float, complex, sqrt or atan2 call in the fan layer, the complexes
    # and their zero-block tests, the exact kernels, the Hermite rank
    # certificate, the stability bounds, the modular gcd certificate or the
    # polynomials, save the one complex call of GaussianRational.to_complex
    offenders = []
    for name in ("fans.py", "complexes.py", "exactla.py", "hermite.py", "stability.py",
                 "modular.py", "polynomials.py"):
        tree = ast.parse((ROOT / "src" / "toricstab" / name).read_text(encoding="utf-8"))
        display = {id(node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and cls.name == "GaussianRational"
                   for method in cls.body
                   if isinstance(method, ast.FunctionDef) and method.name == "to_complex"
                   for node in ast.walk(method)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "complex"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offenders.append(f"{name}:{node.lineno}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported = {getattr(node, "module", None)} | {alias.name for alias in node.names}
                if "cmath" in imported:
                    offenders.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Call) and id(node) not in display:
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in ("float", "complex", "sqrt", "atan2"):
                    offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_src_holds_the_library_and_the_cli_suites_only():
    # each run_* suite of oracles is an oracle command; what only the tests
    # run lives in tests/corpus.py and beside its tests
    from toricstab import oracles
    from toricstab.cli import COMMANDS

    suites = sorted(name[4:] for name in vars(oracles) if name.startswith("run_"))
    assert suites == sorted(c.split()[1] for c in COMMANDS if c.startswith("oracle "))
    defined = {path.name: {node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                           if isinstance(node, ast.FunctionDef)}
               for path in (ROOT / "src" / "toricstab").glob("*.py")}
    assert [name for name, funcs in defined.items() if funcs & {"primitive_ray", "from_pair"}] == []
