"""Every function, class, method, module-level constant and defaulted
parameter in the package is reached from outside the tests.

A name counts as used when ``src/``, ``scripts/`` or ``bench/`` refer to it
as a name they read, an attribute, an imported name, a keyword argument,
or a ``pyproject.toml`` entry point; a name they only assign, such as a
module constant at its own assignment, does not count.  A method or
property defined in a class body counts as used only when they refer to it
as an attribute, so a local variable or parameter of the same name does
not keep it alive.  Dunder methods and dunder constants such as
``__version__`` are exempt.  The check is by name, so it misses a dead
definition that shares its name with a live one.

A parameter with a default counts as set only when some call in those
directories passes it, by keyword or by position, to a callee of the
function's name (a class's name, or ``cls``, for its ``__init__``); a call
that unpacks ``*args`` or ``**kwargs`` may pass any parameter of its kind.
The parameters of entry points, which a shell fills, are exempt.

A dataclass field counts as read only when those directories read it as an
attribute; an assignment to it does not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snopt_kit"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(where, name, is_method) for every non-dunder definition in the package."""
    for path, tree in _trees("src/snopt_kit"):
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, _DEFS)}
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield (f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node.name,
                           id(node) in methods)


def _entry_points():
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))


def _references():
    """Names referred to in any way, and names referred to as attributes."""
    names, attributes = set(), set()
    for _, tree in _trees("src", "scripts", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    names.update(_entry_points())
    return names | attributes, attributes


def test_no_unreferenced_definitions():
    used, attributes = _references()
    dead = [where for where, name, is_method in _definitions()
            if name not in (attributes if is_method else used)]
    assert dead == [], "defined in src/ but referenced only by tests (or nowhere): " + ", ".join(dead)


def _defaulted_parameters():
    """(where, callee names, parameter, its position or None) for every
    parameter with a default; the position counts call arguments, so it
    skips a method's ``self`` or ``cls``."""
    exempt = _entry_points()
    for path, tree in _trees("src/snopt_kit"):
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, _DEFS)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name in exempt:
                continue
            args = node.args
            callees = {node.name}
            positional = args.posonlyargs + args.args
            if id(node) in owner and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                             for d in node.decorator_list):
                positional = positional[1:]
                if node.name == "__init__":
                    callees = {owner[id(node)], "cls"}
            where = f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield where, callees, positional[i].arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield where, callees, arg.arg, None


def _passed():
    """Per callee name, the keywords and the most positional arguments
    calls pass; and the callee names some call passes ``*args`` or
    ``**kwargs``."""
    keywords, most, star, double = {}, {}, set(), set()
    for _, tree in _trees("src", "scripts", "bench"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args):
                star.add(name)
            most[name] = max(most.get(name, 0), len(node.args))
            for kw in node.keywords:
                if kw.arg is None:
                    double.add(name)
                else:
                    keywords.setdefault(name, set()).add(kw.arg)
    return keywords, most, star, double


def test_every_defaulted_parameter_is_set():
    keywords, most, star, double = _passed()
    never = [f"{where}({param}=)" for where, callees, param, pos in _defaulted_parameters()
             if not any(param in keywords.get(c, ()) or c in double
                        or (pos is not None and (most.get(c, 0) > pos or c in star))
                        for c in callees)]
    assert never == [], "parameters no call outside the tests sets: " + ", ".join(never)


def _module_constants():
    """(where, name) for every non-dunder name a package module assigns at top level."""
    for path, tree in _trees("src/snopt_kit"):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not name.id.startswith("__"):
                            yield f"{path.relative_to(ROOT)}:{node.lineno} {name.id}", name.id


def test_every_module_constant_is_read():
    used, _ = _references()
    unread = [where for where, name in _module_constants() if name not in used]
    assert unread == [], "module-level names nothing outside the tests reads: " + ", ".join(unread)


# the dense reference's first-order outputs: the tests hold the adjoint
# sweep against them, and nothing outside the tests reads them
REFERENCE_FIELDS = {"DenseCurvatureState.qx", "DenseCurvatureState.qu"}


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    """Every annotated field of a ``@dataclass`` in the package is read as an
    attribute in ``src/``, ``scripts/`` or ``bench/``.

    Fields are matched by name, like methods: a field passes when any
    attribute of its name is read, so an instance attribute that shares a
    live name (``TrainAbort.iteration`` with ``TrainRecord.iteration``)
    still passes.
    """
    read = {node.attr for _, tree in _trees("src", "scripts", "bench")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.relative_to(ROOT)}:{node.lineno} {cls.name}.{node.target.id}"
              for path, tree in _trees("src/snopt_kit")
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.target.id not in read
              and f"{cls.name}.{node.target.id}" not in REFERENCE_FIELDS]
    assert unread == [], "dataclass fields nothing outside the tests reads: " + ", ".join(unread)
