import ast
import importlib
import pkgutil
from pathlib import Path

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
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"gtprob imports {missing} from {node.module}"
