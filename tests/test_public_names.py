"""Every public module-level name of the package has a caller in ``src/``,
or a stated reason to stand without one.

A name counts as called when any other module-level statement of the
package refers to it: by name, as an attribute, or in an import.  Its own
definition does not count, so a function that only calls itself is
unused.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sinegordon"
TRACER = ROOT / "perfbench" / "tracer.py"
SUBDIVERGENCE = ("the paper's subdivergence condition, checked against all "
                 "hierarchies; no CLI context runs it")

# "module.name" -> why it stands without a caller in src/
ALLOWED = {
    "moment_diagrams.single_copy_diagram": "acceptance criterion 04",
    "multiscale.preimage_interval":
        "acceptance criterion 05; benchmark tracer layer",
    "power_counting.all_coalescence_trees":
        "benchmark tracer layer; the hierarchies of the cluster-audit oracles",
    "power_counting.divergent_cluster_exclusions": SUBDIVERGENCE,
    "power_counting.order_audit": "acceptance criterion 07",
    "power_counting.subdivergence_audit": SUBDIVERGENCE,
    "power_counting.summability_probe": "acceptance criterion 07",
    "stochastic.correlation_slopes":
        "acceptance criterion 09; benchmark tracer layer",
    "stochastic.covariance_table":
        "test oracle: sampled covariance and criterion 09's exact profile",
    "stochastic.translation_correlation":
        "benchmark tracer layer; test oracle of the dipole counterterm",
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


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_tracer_reasons_name_tracer_layers():
    # the module-level package callables the tracer wraps, as "module.name"
    layers = {f"{module.removeprefix('sinegordon.')}.{path}"
              for _, module, path, _ in _tracer_layers()
              if module.startswith("sinegordon.") and "." not in path}
    named = {name for name, why in ALLOWED.items() if "benchmark tracer" in why}
    assert named <= layers
    # a traced callable with no caller in src/ says that it is traced
    assert layers & set(unreferenced(package_sources())) <= named
