"""Every public function, method and property of the package has a caller
in the package.

Code that only tests call belongs in ``tests/``; a public name that nothing
in ``src/`` calls is either unfinished work, listed below with the change
that gives it a caller, or a candidate for deletion. The list itself
holds no name that is gone from ``src/`` or has gained a caller there.
"""

import ast
from pathlib import Path

import mqcsim

# public functions with no caller in src/ yet, each with its reason
NO_CALLER_YET = {
    "evolve": "the library's propagation entry point, which krylov-n14 calls",
    "run_dd_stepwise": "the stepwise reference of perfbench's DD check (ROADMAP item 1)",
    "unitarity_defect": "the run report's propagator check (ROADMAP item 1)",
    "mixture_second_moment": "the finite-cluster inversion kernel (ROADMAP item 8)",
    "scans_to_match_snr": "the DD-detected MQC readout (ROADMAP item 3)",
}


def _public(node, kind) -> bool:
    return isinstance(node, kind) and not node.name.startswith("_")


class _Uses(ast.NodeVisitor):
    """The names and attribute names a module reads, each counted only
    outside a def of its own name."""

    def __init__(self):
        self.names, self.attributes, self.defs = set(), set(), []

    def visit_FunctionDef(self, node):
        self.defs.append(node.name)
        self.generic_visit(node)
        self.defs.pop()

    def visit_Name(self, node):
        if node.id not in self.defs:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.defs:
            self.attributes.add(node.attr)
        self.generic_visit(node)


def _uncalled() -> set[str]:
    """The public functions, methods and properties of ``src/`` that no
    module there calls."""
    functions, methods, uses = set(), set(), _Uses()
    for path in sorted(Path(mqcsim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            if _public(top, ast.FunctionDef):
                functions.add(top.name)
            elif _public(top, ast.ClassDef):
                methods.update(d.name for d in top.body if _public(d, ast.FunctionDef))
        uses.visit(tree)
    return (functions - uses.names - uses.attributes) | (methods - uses.attributes)


def test_every_public_function_has_a_caller_in_src():
    unused = sorted(_uncalled() - set(NO_CALLER_YET))
    assert not unused, f"public functions, methods or properties with no caller in src/: {unused}"


def test_allowlist_holds_only_uncalled_names():
    # a name leaves the allowlist once it is deleted or gains a caller
    stale = sorted(set(NO_CALLER_YET) - _uncalled())
    assert not stale, f"allowlisted names gone from src/ or called there: {stale}"
