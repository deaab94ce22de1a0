"""Every name a polybox module imports is read somewhere in that module,
only exact.py imports `fractions`, the only imports inside functions
are the two that break an import cycle, and no module reads another
module's underscore names.

A small AST check in place of a linter: an import binds names, and each
bound name must occur as a `Name` load or as the base of an attribute
access. `__init__.py` only re-exports, so it is exempt.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "polybox"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import in the module, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def unused_imports(source):
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(name, line) for name, line in imported_names(tree) if name not in read]


def test_scan_finds_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    src = "import itertools\nfrom x import a as b, c\nimport os.path\nc(os.path.sep)\n"
    assert unused_imports(src) == [("itertools", 1), ("b", 2)]


def imported_modules(tree):
    """Top-level module name of every import in the module, at any depth."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_scalar_backend_stays_in_exact(path):
    # exact.py alone picks the scalar type (gmpy2 mpq or Fraction); every
    # other module works through rat, Rational and .numerator/.denominator
    if path.name != "exact.py":
        assert "fractions" not in imported_modules(ast.parse(path.read_text()))


def test_detects_fractions_import():
    src = "def f():\n    from fractions import Fraction\n    return Fraction\n"
    assert "fractions" in imported_modules(ast.parse(src))
    assert "fractions" in imported_modules(ast.parse("import fractions as fr\n"))
    assert "fractions" not in imported_modules(ast.parse("from .exact import rat\n"))


PERFBENCH = SRC.parents[1] / "perfbench"

#: functions and methods that only tests call: none. A test that needs
#: a reference form or an input builder keeps it in tests/.
UNREAD_ALLOWED = set()


def names_read(tree, skip=frozenset()):
    """(names, attributes): every name read as a `Name` load, and every
    name read as the attribute of a load or spelled out by a `getattr`
    call: its literal second argument, or, for `getattr(x, "prefix" +
    ...)`, the prefix followed by "*" (every name with that prefix is
    read). Nodes in `skip` are not entered."""
    names, out = set(), set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node in skip:
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2:
            arg = node.args[1]
            if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
                arg, star = arg.left, "*"
            else:
                star = ""
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                out.add(arg.value + star)
    return names, out


def is_read(name, read):
    return name in read or any(r.endswith("*") and name.startswith(r[:-1]) for r in read)


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def definitions(tree):
    """(name, node) for each module-level function, and ("Class.method",
    node) for each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def unread_functions(modules, readers, exported):
    """(file name, name) for each module-level function of `modules` that
    no source in `readers` reads and `exported` does not list, and
    (file name, "Class.method") for each method of a module-level class
    that no reader reads; dunder methods are called by Python itself. A
    function is read by a `Name` load or an attribute read of its name, a
    method only by an attribute read or a `getattr` string, so a local
    variable of the same name does not read it. Modules and readers are
    (file name, source) pairs. A read inside the body of an unread
    function does not count: those bodies are dropped from the readers
    and the scan repeats until nothing new turns up, so a chain of
    helpers that only an unread function reaches is found whole."""
    trees = [(name, ast.parse(source)) for name, source in readers]
    defs = [(name, qual, node) for name, source in modules
            for qual, node in definitions(ast.parse(source))]
    unread = set()
    while True:
        names, attrs = set(), set()
        for name, tree in trees:
            n, a = names_read(tree, {node for qual, node in definitions(tree)
                                     if (name, qual) in unread})
            names |= n
            attrs |= a
        found = set()
        for name, qual, node in defs:
            if qual == node.name:
                kept = is_read(node.name, names | attrs) or node.name in exported
            else:
                kept = is_read(node.name, attrs) or node.name.startswith("__")
            if not kept:
                found.add((name, qual))
        if found == unread:
            return unread
        unread = found


def test_every_function_is_read_or_exported():
    sources = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    assert len(sources) > len(MODULES)
    unread = unread_functions([(p.name, p.read_text()) for p in MODULES],
                              [(p.name, p.read_text()) for p in sources], exported_names())
    assert unread == UNREAD_ALLOWED


def test_detects_unread_function():
    module = "def used():\n    pass\n\ndef unused():\n    pass\n\ndef public():\n    pass\n"
    reader = "import m\nm.used()\n"
    assert unread_functions([("m.py", module)], [("m.py", module), ("r.py", reader)],
                            {"public"}) == {("m.py", "unused")}


def test_detects_unread_chain():
    # unused → link → end, and A.unused → A.link: each link is read only
    # from the body of an unread function; `kept` is read from `used`
    module = ("def used():\n    return kept()\n\ndef kept():\n    pass\n"
              "def unused():\n    return link()\n\ndef link():\n    return end()\n"
              "def end():\n    pass\n"
              "class A:\n    def unused(self):\n        return self.link()\n"
              "    def link(self):\n        pass\n")
    reader = "import m\nm.used()\nm.A()\n"
    assert unread_functions([("m.py", module)], [("m.py", module), ("r.py", reader)],
                            set()) == {("m.py", "unused"), ("m.py", "link"), ("m.py", "end"),
                                       ("m.py", "A.unused"), ("m.py", "A.link")}


def test_detects_unread_method():
    module = ("class A:\n"
              "    def __init__(self):\n        self.used()\n"
              "    def used(self):\n        pass\n"
              "    def unused(self):\n        pass\n"
              "    def add_eq(self):\n        pass\n"
              "    def run(self, kind):\n        return getattr(self, 'add_' + kind)\n"
              "    def named(self):\n        pass\n")
    reader = "import m\nm.A().run('eq')\ngetattr(m.A(), 'named')\n"
    assert unread_functions([("m.py", module)], [("m.py", module), ("r.py", reader)],
                            {"A"}) == {("m.py", "A.unused")}


def test_detects_method_shadowed_by_a_local():
    # `pair` and `point` are read only as local variables, never as
    # methods; `used` is read as an attribute
    module = ("class A:\n"
              "    def pair(self):\n        pass\n"
              "    def point(self):\n        pass\n"
              "    def used(self):\n        pass\n"
              "def run(a):\n    pair = point = a.used()\n    return pair, point\n")
    reader = "import m\nm.run(m.A())\n"
    assert unread_functions([("m.py", module)], [("m.py", module), ("r.py", reader)],
                            {"A"}) == {("m.py", "A.pair"), ("m.py", "A.point")}


def module_constants(tree):
    """Every name that a top-level assignment of the module binds, other
    than dunders."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        out += [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and not n.id.startswith("__")]
    return out


def unread_constants(modules, readers):
    """(file name, name) for each module-level constant of `modules` that
    no source in `readers` reads. Modules and readers are (file name,
    source) pairs."""
    read = set()
    for _name, source in readers:
        read = read.union(*names_read(ast.parse(source)))
    return {(name, const) for name, source in modules
            for const in module_constants(ast.parse(source)) if not is_read(const, read)}


def test_every_constant_is_read():
    sources = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    unread = unread_constants([(p.name, p.read_text()) for p in MODULES],
                              [(p.name, p.read_text()) for p in sources])
    assert unread == set()


def test_detects_unread_constant():
    module = ("A = 1\n_B: int = 2\nC, D = 3, 4\n__all__ = ['f']\n"
              "def f():\n    E = 5\n    return A + D\n")
    reader = "import m\nm.C\n"
    assert unread_constants([("m.py", module)], [("m.py", module), ("r.py", reader)]) \
        == {("m.py", "_B")}


#: parameters a handler must take for its shared call signature
UNREAD_PARAMS_ALLOWED = {
    ("cli.py", "_cmd_qubit", "load"),
    ("cli.py", "_cmd_demo", "load"),
    ("demo.py", "_row_gbit", "rng"),
    ("demo.py", "_row_hypercubes", "rng"),
    ("demo.py", "_row_chsh", "rng"),
}


def unread_params(name, source):
    """(file name, function, parameter) for each parameter, other than
    self and cls, that its function's body never reads as a `Name` load,
    nested functions included; functions at any depth are scanned."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out |= {(name, node.name, p) for p in params
                if p not in ("self", "cls") and p not in read}
    return out


def test_every_parameter_is_read():
    unread = set()
    for p in MODULES:
        unread |= unread_params(p.name, p.read_text())
    assert unread == UNREAD_PARAMS_ALLOWED


def test_detects_unread_parameter():
    module = ("def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n"
              "class A:\n    def m(self, x, y=2):\n"
              "        def inner(z):\n            return x\n        return inner\n"
              "    @classmethod\n    def make(cls, n):\n        return n\n")
    assert unread_params("m.py", module) == {
        ("m.py", "f", "b"), ("m.py", "f", "args"), ("m.py", "f", "c"),
        ("m.py", "m", "y"), ("m.py", "inner", "z")}


#: (module, imported module) of the function-level imports: the two that
#: break an import cycle. Every other import sits at module level.
FUNCTION_IMPORTS_ALLOWED = {("measurements.py", "witnesses"), ("bell.py", "steering")}


def function_imports(name, source):
    """(file name, imported module) for each import inside a function
    body, at any depth; a relative import names its module without the
    dots, and `from . import m` names m."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Import):
                out |= {(name, alias.name) for alias in inner.names}
            elif isinstance(inner, ast.ImportFrom):
                mods = [inner.module] if inner.module else [a.name for a in inner.names]
                out |= {(name, m) for m in mods}
    return out


def test_function_level_imports_break_a_cycle():
    found = set()
    for p in sorted(SRC.glob("*.py")):
        found |= function_imports(p.name, p.read_text())
    assert found == FUNCTION_IMPORTS_ALLOWED


def test_detects_function_level_import():
    # a module-level import, inside `try` or not, is not one
    module = ("try:\n    import gmpy2\nexcept ImportError:\n    gmpy2 = None\n"
              "import os\n"
              "def f():\n    import numpy as np\n    return np\n"
              "class A:\n    def m(self):\n        from .bell import Box\n"
              "        def inner():\n            from . import lp\n        return Box\n")
    assert function_imports("m.py", module) == {("m.py", "numpy"), ("m.py", "bell"),
                                                ("m.py", "lp")}


def private(name):
    return name.startswith("_") and not name.startswith("__")


def foreign_private_reads(name, source):
    """(file name, line, name) for each read of an underscore name that
    the module does not define: an attribute load `x._y`, unless x is
    `self`, and each `from … import _y`. A name the module defines is one
    it binds anywhere: a function, a class, an assigned name or an
    assigned attribute. Dunder names are exempt."""
    tree = ast.parse(source)
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out |= {(name, node.lineno, a.name) for a in node.names if private(a.name)}
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and private(node.attr) and node.attr not in own
              and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            out.add((name, node.lineno, node.attr))
    return out


def test_no_module_reads_another_modules_private_names():
    found = set()
    for p in sorted(SRC.glob("*.py")):
        found |= foreign_private_reads(p.name, p.read_text())
    assert found == set()


def test_detects_foreign_private_read():
    # `_offset` is another module's; `_keys` and `_cache` are this one's
    module = ("from .polysimplex import PolySimplex, _cached_space\n"
              "from . import linalg as la\n"
              "class Box:\n"
              "    def _keys(self):\n        return self._offset\n"
              "    def tensor(self, shape):\n"
              "        self._cache = shape._offset\n"
              "        return la._rref(self._keys()), shape.__class__\n"
              "def f(box):\n    return box._keys(), box._cache\n")
    assert foreign_private_reads("m.py", module) == {
        ("m.py", 1, "_cached_space"), ("m.py", 7, "_offset"), ("m.py", 8, "_rref")}
