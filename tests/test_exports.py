import ast
import graphlib
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import gtprob


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(gtprob.__path__):
        module = importlib.import_module(f"gtprob.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"gtprob.{info.name}.__all__ names {missing}"
    tree = ast.parse(Path(gtprob.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            names = [n for a in node.names for n in (module.__all__ if a.name == "*" else [a.name])]
            missing = [name for name in names if not hasattr(gtprob, name)]
            assert not missing, f"gtprob imports {missing} from {node.module}"


# The modules whose __all__ is gtprob's public API; serialize and cli are not re-exported.
EXPORTED = ("extreal", "functionals", "gametree", "expectation", "strategies", "laws", "forecaster")


def test_gtprob_exports_exactly_its_modules_all():
    union = [name for m in EXPORTED for name in importlib.import_module(f"gtprob.{m}").__all__]
    assert len(union) == len(set(union)), "two modules' __all__ share a name"
    public = {n for n, v in vars(gtprob).items() if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert public == set(union)
    assert "__version__" in vars(gtprob)


def gtprob_modules(node: ast.AST) -> list[str]:
    """The gtprob modules an import statement names; [] for any other node."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.startswith("gtprob.")]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "gtprob":
        return [f"gtprob.{a.name}" for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("gtprob."):
        return [node.module]
    return []


def test_modules_import_at_the_top_without_a_cycle():
    graph, local = {}, []
    for path in sorted(Path(gtprob.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        name = f"gtprob.{path.stem}"
        tree = ast.parse(path.read_text())
        inner = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for n in ast.walk(f)
        }
        graph[name] = set()
        for node in ast.walk(tree):
            targets = gtprob_modules(node)
            graph[name].update(targets)
            if targets and id(node) in inner:
                local.append(f"{name}:{node.lineno}")
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
        cycle = None
    except graphlib.CycleError as exc:
        cycle = " -> ".join(exc.args[1])
    assert (local, cycle) == ([], None), f"imports inside function bodies: {local}; import cycle: {cycle}"
