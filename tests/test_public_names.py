"""Every module-level name of the package, and every method and property
of its classes, has a caller in ``src/``, or a stated reason to stand
without one.  Private names are scanned too, so a helper left without
callers is found; only dunders, which Python itself reads, are not.

A name counts as called when another statement of the package refers to
it: by name, as an attribute, or in an import.  Its own definition does
not count, so a function that only calls itself is unused.  A method's
siblings count, as each statement of a class body is scanned on its own;
a class's own body does not count for the class.
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
    "cli._Parser.error": "argparse calls it on a usage error",
    "moment_diagrams.single_copy_diagram": "acceptance criterion 04",
    "multiscale.ForestInterval.members":
        "acceptance criterion 05 and the benchmark's audit workload count "
        "the forests of each preimage",
    "multiscale.ScaleAssignment.constant":
        "tests and the benchmark's own test give every edge one scale",
    "multiscale.preimage_interval":
        "acceptance criterion 05; benchmark tracer layer",
    "power_counting.all_coalescence_trees":
        "benchmark tracer layer; the hierarchies of the cluster-audit oracles",
    "power_counting.divergent_cluster_exclusions": SUBDIVERGENCE,
    "power_counting.order_audit": "acceptance criterion 07",
    "power_counting.sg_total_homogeneity": "acceptance criterion 07",
    "power_counting.subdivergence_audit": SUBDIVERGENCE,
    "power_counting.summability_probe": "acceptance criterion 07",
    "stochastic.correlation_slopes":
        "acceptance criterion 09; benchmark tracer layer",
    "stochastic.covariance_table":
        "test oracle: sampled covariance and criterion 09's exact profile",
    "stochastic.translation_correlation":
        "benchmark tracer layer; test oracle of the dipole counterterm",
    "tree_core.Homogeneity.at":
        "the catalog tests evaluate homogeneities at a beta_bar",
    "tree_core.Homogeneity.of": "the test of the exact linear arithmetic",
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


def _bound(subs) -> set[str]:
    """The names the nodes ``subs`` bind: parameters, assigned names,
    exception names and nested definitions."""
    out = set()
    for sub in subs:
        if isinstance(sub, ast.arg):
            out.add(sub.arg)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            out.add(sub.name)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            out.add(sub.name)
    return out


def _referenced(*nodes) -> set[str]:
    """The names the statements ``nodes`` refer to and do not bind
    themselves: a parameter or a local read by its own statement is no
    reference to a name defined elsewhere."""
    subs = [s for node in nodes for s in ast.walk(node)]
    bound = _bound(s for s in subs if s not in nodes)
    out = set()
    for sub in subs:
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            if sub.id not in bound:
                out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _units(sources: dict[str, str]) -> list[tuple]:
    """(keys, defined, refs) per module-level statement and per statement
    of a module-level class body; a class's own unit holds only its
    decorators and bases.  ``keys`` name the statement and the
    module-level statement it lies in, ``refs`` is what it refers to, and
    ``defined`` maps each name it defines to its "module.name" or
    "module.Class.method" and the key of the statements whose references
    do not count for it."""
    out = []
    for mod, src in sources.items():
        for i, node in enumerate(ast.parse(src).body):
            top = (mod, i)
            names = {n: (f"{mod}.{n}", top) for n in _defined(node)}
            if not isinstance(node, ast.ClassDef):
                out.append(({top}, names, _referenced(node)))
                continue
            out.append(({top}, names, _referenced(
                *node.decorator_list, *node.bases, *node.keywords)))
            for k, sub in enumerate(node.body):
                own = (mod, i, k)
                method = isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                names = ({sub.name: (f"{mod}.{node.name}.{sub.name}", own)}
                         if method else {})
                out.append(({top, own}, names, _referenced(sub)))
    return out


def unreferenced(sources: dict[str, str]) -> list[str]:
    """The qualified name of each module-level name and each method of
    ``sources`` (module -> source), dunders aside, that no other statement
    refers to: for a module-level name, no statement outside its own; for
    a method, no statement but its own definition."""
    units = _units(sources)
    return sorted(
        qual for _, defined, _ in units
        for name, (qual, own) in defined.items()
        if not name.startswith("__")
        and not any(name in refs for keys, _, refs in units if own not in keys))


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
        "def _helper():\n    return 3\n\n\n"
        # a parameter and a local named like the methods below
        "def wrap(method):\n    return method\n\n\n"
        "def tally():\n    count = 0\n    return count\n\n\n"
        "VALUE = called(), wrap(0), tally()\n"
        "__dunder__ = 4\n\n\n"
        "class Lonely:\n"
        "    def unused(self):\n        return Lonely()\n\n"
        "    def sibling(self):\n        return 5\n\n"
        "    def caller(self):\n        return self.sibling()\n\n"
        "    def loop(self):\n        return self.loop()\n\n"
        "    def method(self):\n        return 7\n\n"
        "    def count(self):\n        return 8\n\n"
        "    @property\n"
        "    def prop(self):\n        return 6\n\n"
        "    def __repr__(self):\n        return ''\n"))
    found = set(unreferenced(sources)) - set(ALLOWED)
    assert found == {"extra.orphan", "extra.recursive", "extra.VALUE",
                     "extra._helper", "extra.Lonely", "extra.Lonely.unused",
                     "extra.Lonely.caller", "extra.Lonely.loop",
                     "extra.Lonely.prop", "extra.Lonely.method",
                     "extra.Lonely.count"}


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
