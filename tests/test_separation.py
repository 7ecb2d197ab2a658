"""The module route never reads the Weyl route: ``modulerep`` checks the
alternating Weyl sum, so it must not import ``qanalogues`` nor name its
Kostant table or its Weyl walk."""

import ast
from pathlib import Path

import spindle

MODULEREP = Path(spindle.__file__).parent / "modulerep.py"
WEYL_ROUTE_NAMES = {"alternation_walk", "_box_table", "kostant_partition_q"}


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
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
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
