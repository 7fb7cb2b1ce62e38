"""Every public function of the package has a caller in the package.

Code that only tests call belongs in ``tests/``; a public function that
nothing in ``src/`` calls is either unfinished work, listed below with the
change that gives it a caller, or a candidate for deletion.
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
    "gaussian_fit_baseline": "the single-Gaussian width beside the mixture (ROADMAP item 4)",
    "scans_to_match_snr": "the DD-detected MQC readout (ROADMAP item 3)",
}


def test_every_public_function_has_a_caller_in_src():
    defined, used = set(), set()
    for path in sorted(Path(mqcsim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(), str(path)).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own is not None and not own.startswith("_"):
                defined.add(own)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    unused = sorted(defined - used - set(NO_CALLER_YET))
    assert not unused, f"public functions with no caller in src/: {unused}"
