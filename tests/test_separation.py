"""Boundaries between modules, checked on their syntax trees.

The module route never reads the Weyl route: ``modulerep`` checks the
alternating Weyl sum, so it must not import ``qanalogues`` nor name its
Kostant table or its Weyl walk.  No module but ``rootsystem`` names a
private member of ``RootSystem``: the Weyl group is reached only through
its public walk and descent.  And there is one graded-kernel solver:
``nullspace`` is called only by ``exactla.graded_kernel``, and
``modulerep`` holds no z(e) or commutant code.  The work limits live in
``budget`` alone: no function takes a limit as a parameter to pass it
down, and no other module keeps a default of its own.  No module imports
``hashlib``, whose OpenSSL costs every cached call memory and start-up
time: the result cache names its files with a zlib digest.  And the cache
knows no value: ``cache`` names no compute subcommand, and its ``load``
takes no operation to pick a shape by; the value's own codec checks an
entry.  A weight is checked in ``rootsystem`` alone: no other module
compares its length with the rank, raises on ``is_dominant`` or takes
the root-lattice coordinates of a difference of weights."""

import ast
import re
from pathlib import Path

import spindle
from spindle import cli

PACKAGE = Path(spindle.__file__).parent
MODULEREP = PACKAGE / "modulerep.py"
ROOTSYSTEM = PACKAGE / "rootsystem.py"
CACHE = PACKAGE / "cache.py"
WEYL_ROUTE_NAMES = {"alternation_walk", "_box_table", "kostant_partition_q"}
BUDGET_PARAMETERS = {"budget", "dim_budget", "dim_bound"}
BUDGET_DEFAULT = re.compile(r"DEFAULT_\w*BUDGET|DEFAULT_DIM_BOUND")
WEIGHT_NAMES = {"lam", "mu", "nu", "w", "weight", "coords"}
LATTICE_NAMES = {"root_lattice_coords", "in_root_lattice"}
SOLVER_NAMES = {"graded_kernel", "graded_commutant", "nilpotent_centralizer",
                "_nilradical_span", "commutant"}


def _name(node):
    """The name a Name, attribute, import alias or def binds or reads."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.alias, ast.FunctionDef)):
        return node.name
    return None


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            modules = []
        if any("qanalogues" in m.split(".") for m in modules):
            yield f"line {node.lineno}: imports qanalogues"
        name = _name(node)
        if name in WEYL_ROUTE_NAMES:
            yield f"line {getattr(node, 'lineno', '?')}: names {name}"


def test_modulerep_does_not_read_the_weyl_route():
    tree = ast.parse(MODULEREP.read_text(), str(MODULEREP))
    assert list(_violations(tree)) == []


def test_the_guard_sees_each_kind_of_violation():
    sources = [
        "from . import qanalogues as qa",
        "from .qanalogues import t_poly",
        "import spindle.qanalogues",
        "rs.alternation_walk(top, gap)",
        "from .qanalogues import _box_table",
        "kostant_partition_q(rs, nu)",
    ]
    for source in sources:
        assert list(_violations(ast.parse(source))), source


def _private_members():
    """The private names of RootSystem: its _methods and the _attributes
    its methods set on self."""
    tree = ast.parse(ROOTSYSTEM.read_text(), str(ROOTSYSTEM))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "RootSystem")
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _private_uses(tree, private):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in private:
            yield f"line {node.lineno}: names {node.attr}"


def test_only_rootsystem_names_private_root_system_members():
    private = _private_members()
    assert {"_bonds", "_orbit_walk", "_parabolic", "_walk_steps"} <= private
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "rootsystem.py":
            tree = ast.parse(path.read_text(), str(path))
            if uses := list(_private_uses(tree, private)):
                found[path.name] = uses
    assert found == {}


def test_the_private_member_guard_sees_each_kind_of_use():
    private = _private_members()
    sources = [
        "rs._orbit_walk(mu)",
        "bonds = rs._bonds[j]",
        "self.rs._parabolic.clear()",
        "f = rs._walk_steps",
    ]
    for source in sources:
        assert list(_private_uses(ast.parse(source), private)), source
    for source in ["rs.dominant_descent(mu)", "rs.weyl_orbit(mu)",
                   "module._e_cols", "rs.__class__"]:
        assert not list(_private_uses(ast.parse(source), private)), source


def _solver_violations(module, tree):
    """Where module (a file stem of the package) steps outside the one
    graded-kernel solver."""
    if module == "exactla":
        # only graded_kernel calls nullspace
        scopes = [top for top in tree.body if getattr(top, "name", None)
                  not in ("nullspace", "graded_kernel")]
        banned = {"nullspace"}
    else:
        scopes = [tree]
        banned = {"nullspace"} | (SOLVER_NAMES if module == "modulerep"
                                  else set())
    for scope in scopes:
        for node in ast.walk(scope):
            if _name(node) in banned:
                yield f"line {getattr(node, 'lineno', '?')}: names {_name(node)}"


def test_one_graded_kernel_solver():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if uses := list(_solver_violations(path.stem, tree)):
            found[path.name] = uses
    assert found == {}
    exactla = ast.parse((PACKAGE / "exactla.py").read_text())
    kernel = next(top for top in exactla.body
                  if getattr(top, "name", None) == "graded_kernel")
    assert "nullspace" in {_name(node) for node in ast.walk(kernel)}


def test_the_solver_guard_sees_each_kind_of_violation():
    cases = [
        ("endalg", "for h in heights:\n    out += la.nullspace(rows, n)"),
        ("endalg", "from .exactla import nullspace"),
        ("exactla", "def rank_deficit(rows, n):\n    return nullspace(rows, n)"),
        ("modulerep", "zs = la.graded_kernel(grades)"),
        ("modulerep", "basis = la.graded_commutant(zs, floors)"),
        ("modulerep", "def nilpotent_centralizer(module):\n    pass"),
        ("modulerep", "from .endalg import _nilradical_span"),
        ("modulerep", "def commutant(module, zs):\n    pass"),
    ]
    for module, source in cases:
        assert list(_solver_violations(module, ast.parse(source))), source
    for module, source in [
        ("endalg", "zs = la.graded_kernel(_nilradical_span(module))"),
        ("endalg", "basis = la.graded_commutant(zs, module.floors())"),
        ("exactla", "def graded_kernel(grades):\n    return nullspace(r, n)"),
    ]:
        assert not list(_solver_violations(module, ast.parse(source))), source


def _budget_violations(module, tree):
    """Where module (a file stem of the package) passes a limit down as a
    parameter, or, outside ``budget``, sets a default limit of its own."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            for arg in (a.posonlyargs + a.args + a.kwonlyargs
                        + [a.vararg, a.kwarg]):
                if arg is not None and arg.arg in BUDGET_PARAMETERS:
                    yield f"line {node.lineno}: parameter {arg.arg}"
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if module != "budget" and BUDGET_DEFAULT.fullmatch(node.id):
                yield f"line {node.lineno}: assigns {node.id}"


def test_limits_live_in_one_module():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if uses := list(_budget_violations(path.stem, tree)):
            found[path.name] = uses
    assert found == {}


def test_the_budget_guard_sees_each_kind_of_violation():
    cases = [
        ("characters", "def is_wmf(rs, lam, dim_budget=10**6):\n    pass"),
        ("rootsystem", "def walk(self, start, gap, budget=None):\n    pass"),
        ("endalg", "def type_a_module(n, kind, *, dim_bound):\n    pass"),
        ("qanalogues", "f = lambda nu, budget: nu"),
        ("rootsystem", "DEFAULT_WEYL_BUDGET = 10**7"),
        ("endalg", "DEFAULT_DIM_BOUND = 60"),
        ("truncsym", "DEFAULT_ENUM_BUDGET: int = 10**6"),
        ("budget", "def charge(kind, what, needed, budget):\n    pass"),
    ]
    for module, source in cases:
        assert list(_budget_violations(module, ast.parse(source))), source
    for module, source in [
        ("characters", "budget.charge('dim', 'character dimension', dim)"),
        ("endalg", "with budget.limits(dim=budget.limit('matrix')):\n    pass"),
        ("cli", "FULL_WEYL_BUDGET = 10**10"),
        ("cli", "help = f'default {budget.DEFAULTS[\"dim\"]}'"),
        ("budget", "DEFAULT_WEYL_BUDGET = 10**7"),
        ("errors", "def __init__(self, what, needed, cap):\n    pass"),
    ]:
        assert not list(_budget_violations(module, ast.parse(source))), source


def _hashlib_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        if any(m.split(".")[0] in ("hashlib", "_hashlib") for m in modules):
            yield f"line {node.lineno}: imports hashlib"


def test_no_module_imports_hashlib():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if uses := list(_hashlib_imports(tree)):
            found[path.name] = uses
    assert found == {}


def test_the_hashlib_guard_sees_each_kind_of_import():
    for source in ["import hashlib", "import os, hashlib as h",
                   "from hashlib import sha256", "import _hashlib",
                   "def key(blob):\n    import hashlib\n    return blob"]:
        assert list(_hashlib_imports(ast.parse(source))), source
    for source in ["import zlib", "from . import cache", "hashlib = None"]:
        assert not list(_hashlib_imports(ast.parse(source))), source


def _cache_violations(tree):
    """Where the cache knows a value: a string that is a compute
    subcommand, or a ``load`` that takes an operation."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in cli.COMPUTE):
            yield f"line {node.lineno}: names {node.value!r}"
        elif isinstance(node, ast.FunctionDef) and node.name == "load":
            a = node.args
            if "operation" in {arg.arg for arg in
                               a.posonlyargs + a.args + a.kwonlyargs}:
                yield f"line {node.lineno}: load takes operation"


def test_the_cache_knows_no_subcommand():
    assert list(_cache_violations(ast.parse(CACHE.read_text()))) == []


def test_the_cache_guard_sees_each_kind_of_violation():
    for source in ['_SHAPES = {"dynkin": _is_polynomial}',
                   'if operation == "character":\n    pass',
                   "def load(key, operation=None, directory=None):\n    pass",
                   "def load(key, *, operation):\n    pass"]:
        assert list(_cache_violations(ast.parse(source))), source
    for source in ['key = cache_key("op", "A", 1, (1,))',
                   "def load(key, directory=None):\n    pass",
                   "def cached(cls, operation, compute):\n    pass",
                   '"""A cached character or dynkin polynomial."""']:
        assert not list(_cache_violations(ast.parse(source))), source


def _weight_check_violations(tree):
    """Where a module checks a weight itself: compares the length of a
    weight (a name the package gives weights) with the rank, raises when
    ``is_dominant`` fails, or takes the root-lattice coordinates of a
    difference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            lengths = [s for s in sides if isinstance(s, ast.Call)
                       and _name(s.func) == "len" and s.args
                       and _name(s.args[0]) in WEIGHT_NAMES]
            if lengths and any(_name(n) == "rank"
                               for s in sides for n in ast.walk(s)):
                yield f"line {node.lineno}: compares a length with the rank"
        elif isinstance(node, ast.If):
            tested = {_name(n) for n in ast.walk(node.test)}
            if "is_dominant" in tested and any(
                    isinstance(n, ast.Raise)
                    for s in node.body for n in ast.walk(s)):
                yield f"line {node.lineno}: raises on is_dominant"
        elif (isinstance(node, ast.Call) and _name(node.func) in LATTICE_NAMES
              and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
                      for a in node.args for n in ast.walk(a))):
            yield f"line {node.lineno}: root lattice of a difference"


def test_weights_are_checked_in_rootsystem_alone():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "rootsystem.py":
            tree = ast.parse(path.read_text(), str(path))
            if uses := list(_weight_check_violations(tree)):
                found[path.name] = uses
    assert found == {}


def test_the_weight_guard_sees_each_kind_of_violation():
    for source in [
        "if len(coords) != rank:\n    raise UsageError('length')",
        "ok = len(lam) == rs.rank",
        "if rs.rank < len(args.weight):\n    pass",
        "if not rs.is_dominant(lam):\n    raise DomainError(lam)",
        "for w in (lam, mu):\n    if not rs.is_dominant(w):\n"
        "        raise DomainError(w)",
        "gap = rs.root_lattice_coords(tuple(l - m for l, m in zip(lam, mu)))",
        "ok = rs.in_root_lattice([a - b for a, b in zip(lam, nu)])",
    ]:
        assert list(_weight_check_violations(ast.parse(source))), source
    for source in [
        "lam = checked_weight(lam, rs.rank)",
        "if len(out) != module.rs.rank:\n    raise Error(out)",
        "rank = len(e_cols)",
        "ok = rs.is_dominant(lam) and all(p <= 1 for p in pairs)",
        "if not rs.is_dominant(mu):\n    continue",
        "coords = rs.root_lattice_coords(lam)",
        "gap = rs.gap(lam, mu)",
    ]:
        assert not list(_weight_check_violations(ast.parse(source))), source
