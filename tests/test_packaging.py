"""The package runs on the standard library alone; numpy is a test oracle."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_cli_import_loads_neither_numpy_nor_oracles():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import toricstab.cli, sys; print('numpy' in sys.modules); "
            "print('toricstab.oracles' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_cli_import_leaves_the_membership_certificate_unloaded():
    # is_member imports it on first use, off the start-up path of toricctl
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import toricstab.cli, sys; print('toricstab.modular' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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
    # cli.main maps the library's typed errors through one table, so no
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
    # certification paths stay exact: no float literal and no float, complex,
    # sqrt or atan2 call in the fan layer, the exact kernels, the Hermite
    # rank certificate, the stability bounds or the modular gcd certificate
    offenders = []
    for name in ("fans.py", "exactla.py", "hermite.py", "stability.py", "modular.py"):
        tree = ast.parse((ROOT / "src" / "toricstab" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offenders.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in ("float", "complex", "sqrt", "atan2"):
                    offenders.append(f"{name}:{node.lineno}")
    assert offenders == []
