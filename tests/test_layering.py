"""Modules of the package use each other only through public names,
imported at the top and along an acyclic import graph, the
sparse LU is called from one module, dirichlet.py, whose own GMRES cycle
serves its one Newton step, no scipy Krylov solver is called at all, dense
Hermitian eigenvalues and inverses are computed in one module, hessian.py,
one module, domain.py, binds the name brentq, every module-level import
is used, and every exported name, and every defaulted parameter of an
exported function, is reached from outside the tests."""

import ast
import inspect
import pathlib

import cmaeig

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "cmaeig"


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


# scipy.sparse.linalg's direct solvers and its Krylov solvers; the package runs
# its own GMRES cycle, so no module may call any of the latter
LINEAR_SOLVERS = ("spsolve", "splu", "gmres", "lgmres", "gcrotmk", "bicg", "bicgstab",
                  "cg", "cgs", "minres", "qmr", "tfqmr")


def called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def calls_of(path, names):
    """(line, name) for every call of a name in `names`, bare or as an
    attribute."""
    return [(node.lineno, called_name(node))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and called_name(node) in names]


def callers_of(path, names):
    """{name: sorted names of the innermost functions that call it} for the
    names in `names` that are called; a call outside any function counts as
    "<module>"."""
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and called_name(child) in names:
                found.setdefault(called_name(child), set()).add(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return {name: sorted(owners) for name, owners in found.items()}


def linear_solver_calls(path):
    return calls_of(path, LINEAR_SOLVERS)


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
    # one factorization (the quarter-Laplacian and Newton-Jacobian LUs), no
    # Krylov solver (the Newton steps run the package's _krylov), no direct solve
    assert calls["dirichlet.py"] == ["splu"]


def test_detector_sees_linear_solver_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.sparse.linalg as sla\n"
                     "from scipy.sparse.linalg import spsolve\n"
                     "x = spsolve(A, b)\ny = sla.gmres(A, b)\nlu = sla.splu(A).solve(b)\n")
    assert [name for _, name in linear_solver_calls(probe)] == ["spsolve", "gmres", "splu"]


def test_newton_linear_solves_go_through_one_step():
    """In dirichlet.py the GMRES cycle _krylov runs only in the Newton step,
    and LUs are factored, in full or on symmetry orbits (_orbit_factor),
    only by the Newton step's refresh and by the cached quarter-Laplacian
    solver's solve, one LU per stabilizer (_OrbitLU).  One Krylov engine
    (_Arnoldi) serves the GMRES cycle and the n = 1 branch basis, with one
    Givens least squares and no lstsq."""
    path = SRC / "dirichlet.py"
    names = ("_krylov", "_orbit_factor", "_factor", "splu", "_Arnoldi", "hypot")
    assert callers_of(path, names) == {
        "_krylov": ["_newton_step"],
        "_orbit_factor": ["_newton_step", "solve"],
        "_factor": ["_orbit_factor"],
        "splu": ["_factor"],
        "_Arnoldi": ["_branch_solve", "_krylov"],
        "hypot": ["_rotate"],
    }
    assert calls_of(path, ("lstsq",)) == []


def test_eigenpath_walks_the_branch_in_one_place():
    """In eigenpath.py every stepped branch point comes from _walk, and the
    lam = 0 solve is made only by _origin."""
    assert callers_of(SRC / "eigenpath.py", ("_branch_step", "solve_frozen")) == {
        "_branch_step": ["_walk"],
        "solve_frozen": ["_origin"],
    }
    assert len(calls_of(SRC / "eigenpath.py", ("_branch_step",))) == 1


def test_detector_sees_callers(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.sparse.linalg as sla\n"
                     "def _krylov(J, b):\n    return sla.gmres(J, b)\n"
                     "def solve(J, b):\n"
                     "    def step():\n        return _krylov(J, b)\n"
                     "    return step(), gmres(J, b)\n"
                     "x = _krylov(A, b)\n")
    assert callers_of(probe, ("gmres", "_krylov", "splu")) == {
        "gmres": ["_krylov", "solve"], "_krylov": ["<module>", "step"]}


def test_dense_eigenvalues_are_computed_only_in_hessian():
    """Solvers read eigenvalues from HermitianField, never from a dense
    decomposition of their own."""
    calls = {p.name: calls_of(p, ("eigvalsh",)) for p in sorted(SRC.glob("*.py"))}
    assert calls["hessian.py"] != []
    assert {name: found for name, found in calls.items() if found and name != "hessian.py"} == {}


def test_detector_sees_eigvalsh_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom numpy.linalg import eigvalsh\n"
                     "w = np.linalg.eigvalsh(M)\nv = eigvalsh(M)\nx = np.linalg.eigh(M)\n")
    assert calls_of(probe, ("eigvalsh",)) == [(3, "eigvalsh"), (4, "eigvalsh")]


def test_dense_inverses_are_computed_only_in_hessian():
    """Solvers take per-node inverses from HermitianField.inverse and form no
    dense per-node matrices of their own."""
    calls = {p.name: calls_of(p, ("inv", "matrices")) for p in sorted(SRC.glob("*.py"))}
    assert [name for _, name in calls["hessian.py"]].count("inv") > 0
    assert {name: found for name, found in calls.items() if found and name != "hessian.py"} == {}


def test_detector_sees_inv_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom numpy.linalg import inv\n"
                     "A = np.linalg.inv(M)\nB = inv(M)\nC = np.linalg.pinv(M)\n"
                     "D = hess.matrices()\n")
    assert calls_of(probe, ("inv", "matrices")) == [(3, "inv"), (4, "inv"), (6, "matrices")]


def module_bindings(path):
    """Names bound at module level by imports, assignments, defs and classes,
    including those inside module-level if/try/with blocks but not inside
    function or class bodies."""
    names = set()

    def visit(body):
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
                continue
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(ast.parse(path.read_text(), filename=str(path)).body)
    return names


def test_only_domain_binds_brentq():
    """The benchmark spans wrap every cmaeig module attribute named brentq as
    the boundary-crossing root-find, so any other module that bound the name
    would have its root-finds counted as crossings.  radial.py, which finds
    its zero inside one RK4 step by Newton's method, calls no brentq."""
    bound = [p.name for p in sorted(SRC.glob("*.py")) if "brentq" in module_bindings(p)]
    assert bound == ["domain.py"]
    assert calls_of(SRC / "radial.py", ("brentq",)) == []


def test_solver_layers_take_f_n_not_a_density_spec():
    """The routes and checks evaluate a density spec once (density_vector);
    the Dirichlet and Hessian layers below them see only the f^n vector, so
    they bind neither density_vector nor a density spec class."""
    density_names = {"density_vector", "eval_density", "Constant", "GaussianBump", "DensitySpec"}
    assert {p: sorted(module_bindings(SRC / p) & density_names)
            for p in ("dirichlet.py", "hessian.py")} == {"dirichlet.py": [], "hessian.py": []}


def test_detector_sees_module_bindings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.optimize\nfrom scipy import optimize as opt\n"
                     "try:\n    from scipy.optimize import brentq\n"
                     "except ImportError:\n    bisect = None\n"
                     "x, (y, z) = 1, (2, 3)\n"
                     "def f():\n    from scipy.optimize import ridder\n    local = 1\n"
                     "class C:\n    attr = 1\n"
                     "root = opt.brentq(f, 0, 1)\n")
    assert module_bindings(probe) == {"scipy", "opt", "brentq", "bisect",
                                      "x", "y", "z", "f", "C", "root"}


def import_sites(path):
    """(line, bound name, local) for every name an import binds, where local
    means inside a function or class body; `from __future__` binds none."""
    found = []

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and (
                    getattr(child, "module", None) != "__future__"):
                found.extend((child.lineno, (a.asname or a.name).split(".")[0], local)
                             for a in child.names)
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, local or scope)

    visit(ast.parse(path.read_text(), filename=str(path)), False)
    return found


def unused_imports(path):
    """(line, name) for every module-level import the module never reads:
    no load of the name anywhere and, in a package __init__, no entry in
    __all__."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [(line, name) for line, name, local in import_sites(path)
            if not local and name not in read]


def test_module_imports_are_used():
    """The two unread imports stay bound for the benchmark's span table
    (perfbench/spans.py), which looks cmaeig.dirichlet.spsolve and
    cmaeig.domain.brentq up by name."""
    unused = [f"{p.name}:{name}" for p in sorted(SRC.glob("*.py"))
              for _, name in unused_imports(p)]
    assert unused == ["dirichlet.py:spsolve", "domain.py:brentq"]


def test_modules_import_at_the_top():
    """No module imports inside a function or class body, so every module's
    dependencies are read from its top."""
    local = [(p.name, line, name) for p in sorted(SRC.glob("*.py"))
             for line, name, is_local in import_sites(p) if is_local]
    assert local == []


def package_imports(path, modules):
    """Names of the package modules in `modules` that the module imports,
    at any depth (a function-local import counts); importing a name from the
    package itself counts as importing __init__."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 1:
                base = f"cmaeig.{base}".rstrip(".")
            targets = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for parts in (t.split(".") for t in targets):
            if parts[0] == "cmaeig":
                found.add(parts[1] if len(parts) > 1 and parts[1] in modules else "__init__")
    return found


def import_graph(directory):
    """{module: the package modules it imports} over the .py files in directory."""
    paths = sorted(directory.glob("*.py"))
    modules = {p.stem for p in paths}
    return {p.stem: package_imports(p, modules) for p in paths}


def modules_on_cycles(graph):
    """Sorted modules from which some chain of imports leads back to themselves."""
    def reached(start):
        seen, todo = set(), list(graph[start])
        while todo:
            module = todo.pop()
            if module not in seen:
                seen.add(module)
                todo.extend(graph[module])
        return seen

    return sorted(m for m in graph if m in reached(m))


def test_module_import_graph_is_acyclic():
    """The package's modules form layers: no chain of imports, local ones
    included, leads from a module back to itself.  variational (the eigenpair
    layer) sits below eigenpath (continuation), which builds on it."""
    graph = import_graph(SRC)
    assert "variational" in graph["eigenpath"] and "eigenpath" not in graph["variational"]
    assert modules_on_cycles(graph) == []


def test_detector_sees_import_cycles(tmp_path):
    (tmp_path / "__init__.py").write_text("from . import errors\nfrom .a import run\n")
    (tmp_path / "errors.py").write_text("import numpy\n")
    (tmp_path / "a.py").write_text("import cmaeig.b\nfrom .errors import E\n")
    (tmp_path / "b.py").write_text("def f():\n    from cmaeig.a import run\n    return run\n")
    (tmp_path / "c.py").write_text("from .a import run\nfrom cmaeig import Ball\n")
    graph = import_graph(tmp_path)
    assert graph == {"__init__": {"errors", "a"}, "errors": set(), "a": {"b", "errors"},
                     "b": {"a"}, "c": {"a", "__init__"}}
    assert modules_on_cycles(graph) == ["a", "b"]
    (tmp_path / "b.py").write_text("import numpy\n")
    assert modules_on_cycles(import_graph(tmp_path)) == []
    (tmp_path / "errors.py").write_text("from . import c\n")
    assert modules_on_cycles(import_graph(tmp_path)) == ["__init__", "a", "c", "errors"]


def test_detector_sees_unused_and_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os\nimport numpy as np\nimport scipy.sparse\n"
                     "from math import pi, tau\nfrom .domain import Ball\n"
                     "__all__ = ['Ball']\n"
                     "try:\n    import json\nexcept ImportError:\n    json = None\n"
                     "def f():\n    from .variational import rayleigh\n"
                     "    return np.pi + pi + rayleigh\n"
                     "class C:\n    import re\n")
    assert unused_imports(probe) == [(2, "os"), (4, "scipy"), (5, "tau"), (9, "json")]
    assert [(line, name) for line, name, local in import_sites(probe) if local] == [
        (13, "rayleigh"), (16, "re")]


def referenced_names(path):
    """Names the module reads as a Name, an Attribute or an import alias (the
    last component of a dotted one), leaving out assignment targets and what
    a module-level function or class reads of its own name."""
    found = set()
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        owner = stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
        found.discard(owner)
    return found


# Exported names that only the tests reach, each kept for its own reason.
TEST_ONLY_EXPORTS = {
    "solve_quasimonotone": "the existence theorem for degenerate equations; c11 checks it",
    "frozen_radial_constant": "the stored shooting constant the oracle fixtures read",
    "ma_det": "the complex Monge-Ampere operator itself",
    "write_grid": "the grid artifact format, read back by read_field",
}


# Package modules other than __init__.py, scripts and the benchmark.
USERS = ([p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
         + sorted((REPO / "scripts").glob("*.py"))
         + sorted((REPO / "perfbench").glob("*.py")))


def test_exported_names_are_reached_outside_tests():
    """Every name in cmaeig.__all__ is read by another package module, a
    script or the benchmark; __init__.py's imports and __all__ strings do
    not count."""
    reached = set().union(*(referenced_names(p) for p in USERS))
    unreached = sorted(set(cmaeig.__all__) - reached)
    assert unreached == sorted(TEST_ONLY_EXPORTS)


def test_detector_sees_referenced_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.sparse.linalg\nfrom .radial import shoot as fire\n"
                     "__all__ = ['unread']\nAlias = int | float\n"
                     "def walk(k):\n    return walk(k - 1) + fire(k)\n"
                     "class Spec:\n    def make(self):\n        return Spec()\n"
                     "x = cmaeig.run(fire)\n")
    assert referenced_names(probe) == {"linalg", "shoot", "int", "float", "k", "fire",
                                       "cmaeig", "run"}


def set_parameters(path, functions):
    """{(function, parameter)} for the parameters of `functions` (name ->
    function) that a call in the module sets: by keyword, positionally at
    its index or later, or through *args (every positional parameter) or
    **kwargs (every parameter).  A call is matched by the called name, bare
    or as an attribute, read through the module's `import ... as` aliases."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.asname}
    found = set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = aliases.get(called_name(call), called_name(call))
        if name not in functions:
            continue
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        keywords = {k.arg for k in call.keywords}
        for i, param in enumerate(inspect.signature(functions[name]).parameters.values()):
            positional = param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
            if (positional and (starred or i < len(call.args))
                    or param.name in keywords or None in keywords):
                found.add((name, param.name))
    return found


# Defaulted parameters of exported functions that no caller outside the
# tests sets, each kept for its own reason.
TEST_SET_PARAMETERS = {
    ("lower_bound", "f"): "the density of the paper's problem; callers solve f = 1",
    ("solve_branch", "f"): "the density of the paper's problem; callers solve f = 1",
    ("solve_quasimonotone", "tol"): "c11's existence theorem (an exported name kept for it)",
    ("frozen_radial_constant", "R"): "the stored constants' radius; the oracle fixtures read R = 1",
    ("main", "argv"): "the console entry point reads sys.argv; tests pass their own",
}


def test_exported_parameters_are_set_outside_tests():
    """Every parameter with a default, of every function in cmaeig.__all__,
    is set by some call in another package module, a script or the
    benchmark, or is on TEST_SET_PARAMETERS."""
    functions = {name: getattr(cmaeig, name) for name in cmaeig.__all__
                 if inspect.isfunction(getattr(cmaeig, name))}
    defaulted = {(name, param.name) for name, fn in functions.items()
                 for param in inspect.signature(fn).parameters.values()
                 if param.default is not param.empty}
    found = set().union(*(set_parameters(p, functions) for p in USERS))
    assert sorted(defaulted - found) == sorted(TEST_SET_PARAMETERS)


def test_detector_sees_set_parameters(tmp_path):
    def solve(rhs, grid=None, tol=1e-8, *, initial=None):
        pass

    def shoot(n, R=1.0, step=None, record=True):
        pass

    probe = tmp_path / "probe.py"
    probe.write_text("from .radial import shoot as fire\n"
                     "u = solve(rhs, g)\nv = cmaeig.solve(rhs, initial=w)\n"
                     "fire(1, *rest)\nother(1, 2, 3, tol=0)\n"
                     "def f(**kwargs):\n    return solve(rhs, **kwargs)\n")
    found = set_parameters(probe, {"solve": solve, "shoot": shoot})
    assert found == {("solve", "rhs"), ("solve", "grid"), ("solve", "tol"),
                     ("solve", "initial"), ("shoot", "n"), ("shoot", "R"),
                     ("shoot", "step"), ("shoot", "record")}
    probe.write_text("solve(rhs, g)\nshoot(1, 2.0, record=False)\n")
    assert set_parameters(probe, {"solve": solve, "shoot": shoot}) == {
        ("solve", "rhs"), ("solve", "grid"), ("shoot", "n"), ("shoot", "R"),
        ("shoot", "record")}
