"""Every function in ``src/recaudit`` is reached from a verb.

The walk parses the package with ``ast`` and follows references from
``cli.main``, ``synthetic.main`` and all module-level code.  A reference is
a name defined or imported in the module, a module-qualified attribute
(``als.fit``), or a method name, which reaches every method of that name.
A reached class reaches its dunder methods.  Names are not scoped, so a
local variable that shares a function's name counts as a reference to it.
"""

import ast
from pathlib import Path

import recaudit

PACKAGE = Path(recaudit.__file__).parent
ROOTS = [("cli", "main"), ("synthetic", "main")]
# reached from outside the verbs on purpose; README "Library use" says why
EXCEPTIONS = {("als", "load_model"), ("als", "loss")}


def parse_package():
    """Per module: its defs by name ("f", "Class", "Class.method"), the
    names its relative imports bind, and the code that runs at import."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        defs, imports, top = {}, {}, []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
                top.extend(node.decorator_list)
                if isinstance(node, ast.FunctionDef):
                    top.extend(node.args.defaults + node.args.kw_defaults)
                    continue
                top.extend(node.bases)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{node.name}.{item.name}"] = item
                        top.extend(item.decorator_list)
                    else:
                        top.append(item)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    # "from . import als" binds a module, "from .als import fit" a name
                    imports[alias.asname or alias.name] = (
                        (alias.name, None) if node.module is None else (node.module, alias.name))
            else:
                top.append(node)
        modules[path.stem] = {"defs": defs, "imports": imports, "top": top}
    return modules


def functions(modules):
    return {(mod, key) for mod, info in modules.items()
            for key, node in info["defs"].items() if isinstance(node, ast.FunctionDef)}


def reached_functions(modules):
    methods_named = {}
    for mod, key in functions(modules):
        if "." in key:
            methods_named.setdefault(key.split(".")[1], []).append((mod, key))
    seen = set()
    stack = [(mod, info["top"]) for mod, info in modules.items()]

    def reach(mod, key):
        node = modules.get(mod, {"defs": {}})["defs"].get(key)
        if node is None or (mod, key) in seen:
            return
        seen.add((mod, key))
        if isinstance(node, ast.FunctionDef):
            stack.append((mod, [node]))
        else:
            for name in [item.name for item in node.body if isinstance(item, ast.FunctionDef)]:
                if name.startswith("__"):
                    reach(mod, f"{key}.{name}")

    for root in ROOTS:
        reach(*root)
    while stack:
        mod, nodes = stack.pop()
        imports = modules[mod]["imports"]
        for sub in (sub for node in nodes for sub in ast.walk(node)):
            if isinstance(sub, ast.Name):
                target, name = imports.get(sub.id, (mod, sub.id))
                if name is not None:
                    reach(target, name)
            elif isinstance(sub, ast.Attribute):
                base = imports.get(getattr(sub.value, "id", None))
                if base is not None and base[1] is None:
                    reach(base[0], sub.attr)
                for method in methods_named.get(sub.attr, []):
                    reach(*method)
    return seen & functions(modules)


def test_every_function_is_reached_from_a_verb():
    modules = parse_package()
    unreached = functions(modules) - reached_functions(modules) - EXCEPTIONS
    assert not unreached, "reached by no verb: " + ", ".join(
        f"{mod}.{key}" for mod, key in sorted(unreached))


def test_exceptions_exist_and_are_unreached():
    modules = parse_package()
    assert EXCEPTIONS <= functions(modules)
    assert not EXCEPTIONS & reached_functions(modules)


def test_exports_resolve():
    for name in recaudit.__all__:
        assert hasattr(recaudit, name), name
    namespace = {}
    exec("from recaudit import *", namespace)
    assert set(recaudit.__all__) <= set(namespace)
