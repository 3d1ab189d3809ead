"""Every public function of the package has a caller outside the tests.

A public module-level function of ``src/stratcub`` passes when its name
appears as an AST name (a bare name or an attribute) in another top-level
statement of ``src/stratcub`` (``__init__.py`` aside, since re-exporting is
not calling), or anywhere in ``scripts/``.  The diagnostics in ``CLAIMS``
back a criterion of the test suite or a pending ``stratcub verify`` line,
and are exempt while nothing else calls them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# exempt diagnostic -> the criterion it backs
CLAIMS = {
    "worst_case_error": "c02",
    "wq_reference": "c02",
    "delta_phi": "c03 and the perfbench probe",
    "lower_hypothesis_probe": "c06",
    "besov_rhs_bounds": "c07",
    "poincare_check": "a pending verify line (ROADMAP item 13)",
    "chi_phi_gradient": "a pending verify line (ROADMAP item 13)",
    "besov_norm_bound_chi": "a pending verify line (ROADMAP item 13)",
}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _public_and_named():
    """Public functions (name -> module) and every name used outside its own
    definition, in the package and the scripts."""
    public, named = {}, set()
    for path in sorted((ROOT / "src" / "stratcub").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, ast.FunctionDef) and not own.startswith("_"):
                public[own] = path.stem
            named |= _names(stmt) - {own}
    for path in sorted((ROOT / "scripts").glob("*.py")):
        named |= _names(ast.parse(path.read_text()))
    return public, named


def test_every_public_function_has_a_caller():
    public, named = _public_and_named()
    orphans = sorted(f"{module}.{name}" for name, module in public.items()
                     if name not in named and name not in CLAIMS)
    assert not orphans, f"called only by tests: {orphans}"


def test_claim_exemptions_are_current():
    # an exemption names a public function that still has no other caller
    public, named = _public_and_named()
    assert not set(CLAIMS) - set(public), "exempt name is not a public function"
    assert not set(CLAIMS) & named, "exempt name has a caller; drop its exemption"
