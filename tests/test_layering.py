"""Modules of the package use each other only through public names, and the
sparse linear solvers are called from one module, dirichlet.py."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cmaeig"


def private_imports(path):
    """(line, module, name) for every underscore name imported from a cmaeig module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "cmaeig":
            continue
        found += [(node.lineno, module, a.name) for a in node.names
                  if a.name.startswith("_")]
    return found


LINEAR_SOLVERS = ("spsolve", "splu", "gmres")


def linear_solver_calls(path):
    """(line, name) for every call of a name in LINEAR_SOLVERS, bare or as an
    attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in LINEAR_SOLVERS:
                found.append((node.lineno, name))
    return found


def test_no_private_cross_module_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    offenders = [f"{p.name}:{line} imports {name} from {module or '.'}"
                 for p in modules for line, module, name in private_imports(p)]
    assert offenders == []


def test_detector_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .domain import _crossing_fraction, build_grid\n"
                     "def f():\n    from cmaeig.dirichlet import _feasible_start\n"
                     "from numpy import _NoValue\n")
    assert [name for _, _, name in private_imports(probe)] == [
        "_crossing_fraction", "_feasible_start"]


def test_linear_solvers_are_called_only_in_dirichlet():
    calls = {p.name: [name for _, name in linear_solver_calls(p)]
             for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found and name != "dirichlet.py"} == {}
    # one factorization (the Laplacian and Newton-Jacobian LUs), one Krylov
    # solve (the Newton steps of both forms), no direct solve
    assert sorted(calls["dirichlet.py"]) == ["gmres", "splu"]


def test_detector_sees_linear_solver_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.sparse.linalg as sla\n"
                     "from scipy.sparse.linalg import spsolve\n"
                     "x = spsolve(A, b)\ny = sla.gmres(A, b)\nlu = sla.splu(A).solve(b)\n")
    assert [name for _, name in linear_solver_calls(probe)] == ["spsolve", "gmres", "splu"]
