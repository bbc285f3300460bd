"""The package exports only what its own modules use.  A public name that no
module of src/cyclicity reads must be on the allowlist below, with its
reason; any other such name would be a function only the tests call."""

import ast
from pathlib import Path

import cyclicity

SRC = Path(cyclicity.__file__).parent

# exported names no module of the package reads, each with its reason
ALLOWED = {
    "arc_contribution": "named by bench/tracing.py",
    "complementary_arcs": "named by bench/tracing.py",
    "solve_gamma": "named by bench/tracing.py",
    "keldysh_outer": "called by bench/run.py for the witness oracle",
}


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _read_names() -> set[str]:
    """Every name a module other than __init__ loads, bare or as an attribute."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_is_used_or_allowed():
    # an allowlisted name that a module now reads, or that is no longer
    # exported, leaves the list too
    unused = _exported() - _read_names()
    assert unused == set(ALLOWED), {"unused, not allowed": sorted(unused - set(ALLOWED)),
                                    "allowed, not unused": sorted(set(ALLOWED) - unused)}
