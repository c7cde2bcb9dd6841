"""Every function in ``src/recaudit`` is reached from a verb, every name
it imports is used, and the array modules import nothing of the pipeline.

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


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def own_nodes(scope):
    """The nodes of ``scope`` outside the scopes nested in it (a nested
    scope's own node included)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def bound_name(alias):
    return (alias.asname or alias.name).split(".")[0]


def bound_in(scope):
    """The names a function, lambda or comprehension binds for itself."""
    names = set()
    for node in own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(map(bound_name, node.names))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                               ast.ExceptHandler)) and node.name:
            names.add(node.name)
    return names


def loaded_in(scope, shadowed=frozenset()):
    """The names read in ``scope`` or below it where no nested scope binds
    them, so that they read ``scope``'s own binding."""
    loaded = set()
    for node in own_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.update({node.id} - shadowed)
        elif isinstance(node, SCOPES):
            loaded |= loaded_in(node, shadowed | bound_in(node))
    return loaded


def test_every_imported_name_is_used():
    # a local that shares an import's name does not use it; an import marked
    # "# noqa: F401" is kept for the attribute it puts on the module
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(source), source.splitlines()
        for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, SCOPES)]:
            loaded = loaded_in(scope)
            unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                       for node in own_nodes(scope)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       and getattr(node, "module", None) != "__future__"
                       and not any("# noqa: F401" in line
                                   for line in lines[node.lineno - 1:node.end_lineno])
                       for alias in node.names if bound_name(alias) not in loaded]
    assert not unused, "imported and never used: " + ", ".join(unused)


def package_imports(module):
    """The package modules that ``module`` imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = f"recaudit.{node.module or ''}".rstrip(".") if node.level else node.module
            names = [f"{base}.{alias.name}" for alias in node.names] \
                if base == "recaudit" else [base]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.partition(".")[2] or name for name in names
                     if name.split(".")[0] == "recaudit")
    return found


def test_grouping_and_stats_take_plain_arrays():
    assert package_imports("grouping") == {"util"}
    assert package_imports("stats") == set()
    assert package_imports("report") >= {"grouping", "stats", "ingest"}
