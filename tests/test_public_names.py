"""Every public module-level name of the package has a caller in ``src/``,
or a stated reason to stand without one.

A name counts as called when any other module-level statement of the
package refers to it: by name, as an attribute, or in an import.  Its own
definition does not count, so a function that only calls itself is
unused.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sinegordon"

# "module.name" -> why it stands without a caller in src/
ALLOWED = {
    "moment_diagrams.single_copy_diagram": "acceptance criterion 04",
    "multiscale.preimage_interval":
        "acceptance criterion 05; benchmark tracer layer",
    "power_counting.all_coalescence_trees":
        "benchmark tracer layer; test oracle of the cluster audits",
    "power_counting.divergent_cluster_exclusions":
        "test oracle: the exclusions subdivergence_audit is checked with",
    "power_counting.order_audit": "acceptance criterion 07",
    "power_counting.subdivergence_audit":
        "test oracle: subdivergence freedom against the hierarchies",
    "power_counting.summability_probe": "acceptance criterion 07",
    "power_counting.triangle_cell_count":
        "test oracle: scale invariance of the annular cells",
    "stochastic.correlation_slopes":
        "acceptance criterion 09; benchmark tracer layer",
    "stochastic.covariance_table":
        "test oracle: sampled covariance and criterion 09's exact profile",
    "stochastic.translation_correlation":
        "benchmark tracer layer; test oracle of the dipole counterterm",
    "tree_core.monomial": "test oracle: polynomial trees",
}


def _defined(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _referenced(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def unreferenced(sources: dict[str, str]) -> list[str]:
    """"module.name" of each public module-level name of ``sources``
    (module -> source) that no other module-level statement refers to."""
    stmts = [(mod, node) for mod, src in sources.items()
             for node in ast.parse(src).body]
    refs = [_referenced(node) for _, node in stmts]
    return sorted(
        f"{mod}.{name}" for i, (mod, node) in enumerate(stmts)
        for name in _defined(node)
        if not name.startswith("_")
        and not any(name in r for j, r in enumerate(refs) if j != i))


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text()
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_has_a_caller_or_a_reason():
    # equality, so a name that gains a caller leaves the list too
    assert unreferenced(package_sources()) == sorted(ALLOWED)


def test_the_scan_sees_an_unused_function():
    sources = dict(package_sources(), extra=(
        "def orphan():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n\n"
        "def called():\n    return 2\n\n\n"
        "VALUE = called()\n"))
    found = set(unreferenced(sources)) - set(ALLOWED)
    assert found == {"extra.orphan", "extra.recursive", "extra.VALUE"}
