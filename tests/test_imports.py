"""No module of the package imports a name it never uses, every public
function and class is reached from the command line or allow-listed, and
no class hand-rolls its immutability.

Each module under ``src/nijflow`` is parsed with ``ast``.  An imported name
counts as used when the module reads it (in code or in a string
annotation), when ``__init__.py`` lists it in ``__all__``, or when its
import statement carries ``# noqa: F401`` on any of its lines, as the
benchmark's patch points do.

A module-level definition is reached when ``cli.main`` or an allow-listed
name refers to it, directly or through other reached definitions.  A class
refers to every name its body does, except in its public methods (neither
dunder nor private): such a method, ``Class.method``, is reached only when
reached code reads an attribute of that name, and then refers to the names
and attributes its body reads.  Checks the command line never runs belong
in ``tests/support.py``, beside the other oracles.

A private definition (a module-level function or class, or a method that is
not dunder, whose name starts with ``_``) is referred to by some module of
the package, by name or attribute, outside its own body.  A private name
has one owner: no module imports one from another module of the package.

No class defines ``__setattr__``, and ``object.__setattr__`` is called only
in the ``__post_init__`` of a frozen dataclass.  ``ExactPolynomial`` is
immutable by contract: it is hashed, and its shared 0 and 1 and its caches
rely on that.  So an attribute named in its ``__slots__`` is assigned,
augmented or deleted, whole or item by item, edited by a dict method, or
named to ``setattr`` or ``delattr`` only in ``ExactPolynomial._store``,
``.partial`` and ``.float_form``.  The rule reads attribute names, not
types or aliases.

No function or method only forwards its arguments: its body, docstring
aside, is not one ``return f(...)`` that passes its own parameters on
unchanged and in order.  A second name for a function is an import alias.

Every exception class of the package derives from a type that an
``except`` clause of ``cli.main`` names, so a command that raises it exits
2 with one line on stderr.  Bases are followed through the package's
classes and relative imports; any other name is looked up in its module.
"""

import ast
import functools
import importlib
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "nijflow"
MODULES = sorted(PACKAGE.glob("*.py"))

# The public names no command reaches that stay in the package, each with
# its reason; a method is named "Class.method".  A bench patch point is a
# name bench/spans.py wraps.
BENCH = "bench patch point"
LIBRARY = "README library API"
ALLOWED = {
    ("metric", "first_integrals"): BENCH,
    ("metric", "benenti_residual"): BENCH,
    ("metric", "gram_matrix"): BENCH,
    ("flows", "integrate_flow"): BENCH,
    ("flows", "integrate_flow_path"): BENCH,
    ("operators", "nijenhuis_torsion"):
        "paper API: the torsion of any operator field",
    ("operators", "guiding_bracket"):
        "paper API: the bracket <L, M> of commuting operator fields",
    ("operators", "is_symmetry"): "paper API: symmetries M of L",
    ("metric", "symmetry_metric"):
        "paper API: the compatible metric gM of a symmetry M",
    ("operators", "companion_first"): "paper API: the first companion form",
    ("operators", "char_coefficients"):
        "paper API: sigma of any operator field",
    ("operators", "OperatorField.power"): "P(L), ROADMAP item 11",
    ("exactpoly", "ExactPolynomial.terms"): LIBRARY,
    ("exactpoly", "ExactPolynomial.coefficient"): LIBRARY,
    ("exactpoly", "ExactPolynomial.constant_value"): LIBRARY,
    ("exactpoly", "ExactPolynomial.evaluate"): LIBRARY,
    ("exactpoly", "ExactPolynomial.evaluate_exact"): LIBRARY,
    ("metric", "PhaseFunction.evaluate"): LIBRARY,
}


def _names_read(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = [getattr(node, "annotation", None),
                       getattr(node, "returns", None)]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    names |= _names_read(ast.parse(part.value, mode="eval"))
    return names


def _literal(body: list[ast.stmt], name: str) -> set[str]:
    """The strings of the literal that one of the statements ``body``
    assigns to ``name``; none if no statement does."""
    for node in body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == [name]):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _names_read(tree) | _literal(tree.body, "__all__")
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name != "*" and name not in used:
                unused.append(name)
    return unused


def test_the_guard_finds_unused_imports():
    source = ("from typing import Sequence, Union\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .a import (b,  # noqa: F401\n"
              "                c)\n"
              "__all__ = ['d']\n"
              "from .d import d\n"
              "def f(x: 'Sequence[int]') -> None:\n"
              "    return np.zeros(1)\n")
    assert unused_imports(source) == ["Union", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[m.stem for m in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _public_methods(node: ast.AST) -> list[ast.FunctionDef]:
    """The methods of a class statement that are neither dunder nor
    private; none for any other statement."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [m for m in node.body if isinstance(m, ast.FunctionDef)
            and not m.name.startswith("_")]


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each name a module defines at its top level -> its statement, and
    each public method ``Class.method`` -> its ``def``."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
            for method in _public_methods(node):
                defs[f"{node.name}.{method.name}"] = method
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name):
                        defs[part.id] = node
    return defs


def _relative_imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Each name a module imports from a sibling -> (sibling, name)."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _parts(node: ast.AST) -> list[ast.AST]:
    """What a reached definition refers to through: a class without its
    public methods, any other statement whole."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    methods = _public_methods(node)
    return [*node.decorator_list, *node.bases, *node.keywords,
            *(stmt for stmt in node.body if stmt not in methods)]


def reachability(sources: dict[str, str], roots) -> tuple[set, list]:
    """The definitions reached from ``roots``, (module, name) pairs, and the
    public functions, classes and methods of ``sources`` (module -> text)
    that are not among them, in module order.  Any ``Name`` node counts as
    a reference, so a local variable that shadows a module-level name
    reaches it, and any attribute read counts for every method of that
    name: the walk can only err towards reaching too much."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    defs = {m: _definitions(tree) for m, tree in trees.items()}
    imports = {m: _relative_imports(tree) for m, tree in trees.items()}

    def resolve(module, name):
        while name not in defs[module]:
            if name not in imports[module]:
                return None
            module, name = imports[module][name]
        return module, name

    methods = {}  # method name -> its (module, "Class.method") keys
    for m, names in defs.items():
        for key in names:
            _, dot, method = key.partition(".")
            if dot:
                methods.setdefault(method, []).append((m, key))
    reached, attributes = set(), set()
    stack = [resolve(*root) for root in roots]
    while stack:
        key = stack.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        module, name = key
        for part in _parts(defs[module][name]):
            for node in ast.walk(part):
                if isinstance(node, ast.Name):
                    stack.append(resolve(module, node.id))
                elif (isinstance(node, ast.Attribute)
                      and node.attr not in attributes):
                    attributes.add(node.attr)
                    stack += methods.get(node.attr, [])
    missed = [(m, name) for m, names in defs.items()
              for name, node in names.items()
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not name.startswith("_") and (m, name) not in reached]
    return reached, missed


SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
ROOTS = [("cli", "main"), *ALLOWED]


@functools.cache
def reached_from_the_cli() -> set:
    return reachability(SOURCES, [("cli", "main")])[0]


def test_every_public_name_is_reached_or_allowed():
    assert reachability(SOURCES, ROOTS)[1] == []


def test_the_guard_finds_a_planted_function():
    planted = dict(SOURCES)
    planted["operators"] += "\n\ndef planted():\n    return commutator\n"
    assert reachability(planted, ROOTS)[1] == [("operators", "planted")]


def test_the_guard_finds_a_planted_method():
    # OperatorField is reached, yet no reached code reads .planted
    planted = dict(SOURCES)
    slots = '    __slots__ = ("n", "entries")\n'
    assert slots in planted["operators"]
    planted["operators"] = planted["operators"].replace(
        slots, slots + "\n    def planted(self):\n        return self.n\n")
    assert reachability(planted, ROOTS)[1] == [
        ("operators", "OperatorField.planted")]


@pytest.mark.parametrize("entry", ALLOWED, ids=".".join)
def test_allowed_name_is_defined_and_unreached_from_the_cli(entry):
    module, name = entry
    node = _definitions(ast.parse(SOURCES[module])).get(name)
    assert isinstance(node, (ast.FunctionDef, ast.ClassDef))
    assert entry not in reached_from_the_cli()


def test_bench_patch_points_are_span_targets():
    # read as tests/test_span_targets.py reads it: compiled in memory
    spans_path = REPO / "bench" / "spans.py"
    spans = {"__file__": str(spans_path), "__name__": "bench_spans"}
    exec(compile(spans_path.read_text(), str(spans_path), "exec"), spans)
    targets = {attr for _, attr, _ in spans["TARGETS"]}
    assert {name for (_, name), why in ALLOWED.items()
            if why == BENCH} <= targets


def _references(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name or attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unreferenced_private(sources: dict[str, str]) -> list[tuple[str, str]]:
    """The private module-level functions and classes and the private
    methods of ``sources`` (module -> text) that no module refers to outside
    their own body, as (module, name) with a method named "Class.method",
    in module order."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    everywhere = sum(map(_references, trees.values()), Counter())
    unreferenced = []
    for m, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{d.name}", d) for d in node.body
                         if isinstance(d, ast.FunctionDef)]
            for key, d in defs:
                if (_is_private(d.name) and everywhere[d.name]
                        == _references(d)[d.name]):
                    unreferenced.append((m, key))
    return unreferenced


def test_every_private_definition_is_referred_to():
    assert unreferenced_private(SOURCES) == []


def test_the_guard_finds_planted_private_definitions():
    # a recursive function refers only to itself, and a private method that
    # a class defines is read nowhere
    planted = dict(SOURCES)
    slots = '    __slots__ = ("n", "entries")\n'
    assert slots in planted["operators"]
    planted["operators"] = planted["operators"].replace(
        slots, slots + "\n    def _stray(self):\n        return self.n\n")
    planted["operators"] += ("\n\ndef _planted(k):\n"
                             "    return _planted(k - 1) if k else 0\n")
    assert unreferenced_private(planted) == [
        ("operators", "OperatorField._stray"), ("operators", "_planted")]


def private_imports(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Each private name a module of ``sources`` (module -> text) imports
    from a sibling, as (module, "sibling.name"), in module order."""
    return [(m, f"{sibling}.{name}") for m, text in sources.items()
            for sibling, name in _relative_imports(ast.parse(text)).values()
            if _is_private(name)]


def test_no_module_imports_a_private_name_of_another():
    assert private_imports(SOURCES) == []


def test_the_guard_finds_planted_private_imports():
    # an aliased import is caught by its imported name; a dunder is public
    planted = dict(SOURCES)
    planted["flows"] += "\nfrom .exactpoly import _float_power\n"
    planted["pde"] += ("\nfrom .lattice_io import (__doc__, _blocks as "
                       "blocks,\n                         make_axis)\n")
    assert private_imports(planted) == [("flows", "exactpoly._float_power"),
                                        ("pde", "lattice_io._blocks")]


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None)
               == "dataclass" and any(k.arg == "frozen" and getattr(
                   k.value, "value", None) is True for k in d.keywords)
               for d in node.decorator_list)


# the methods that may write a slot of ExactPolynomial
SLOT_WRITERS = {("exactpoly", f"ExactPolynomial.{name}")
                for name in ("_store", "partial", "float_form")}
# the methods that edit a dict in place
DICT_EDITS = {"clear", "pop", "popitem", "setdefault", "update"}


def _writes_a_slot(node: ast.AST, slots: set[str]) -> bool:
    """Whether ``node`` stores into or deletes an attribute named in
    ``slots`` or an item of one, edits one in place, or names one to
    ``setattr`` or ``delattr``."""
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "id", None) in ("setattr", "delattr"):
            return (len(node.args) > 1
                    and getattr(node.args[1], "value", None) in slots)
        if getattr(func, "attr", None) not in DICT_EDITS:
            return False
        target = func.value
    elif isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node.ctx, ast.Load):
            return False
        target = node
        while isinstance(target, ast.Subscript):
            target = target.value
    else:
        return False
    return isinstance(target, ast.Attribute) and target.attr in slots


def _calls_object_setattr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and getattr(node.value, "id", None) == "object")


def immutability_plumbing(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Each class of ``sources`` (module -> text) that defines
    ``__setattr__``, as (module, "Class.__setattr__"); each top-level
    statement or method that calls ``object.__setattr__``, other than a
    frozen dataclass's ``__post_init__``; and each one but ``SLOT_WRITERS``
    that writes a slot of ``ExactPolynomial``, as (module, its name), in
    module order."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    slots = next(_literal(node.body, "__slots__")
                 for node in trees["exactpoly"].body
                 if getattr(node, "name", None) == "ExactPolynomial")
    found = []
    for m, tree in trees.items():
        for node in tree.body:
            named, exempt = [(getattr(node, "name", "<module>"), node)], None
            if isinstance(node, ast.ClassDef):
                named = [(f"{node.name}.{getattr(d, 'name', '<body>')}", d)
                         for d in node.body]
                if _is_frozen_dataclass(node):
                    exempt = f"{node.name}.__post_init__"
            for name, part in named:
                parts = list(ast.walk(part))
                if (name.endswith(".__setattr__")
                        or (name != exempt
                            and any(map(_calls_object_setattr, parts)))
                        or ((m, name) not in SLOT_WRITERS
                            and any(_writes_a_slot(a, slots) for a in parts))):
                    found.append((m, name))
    return found


def test_no_class_hand_rolls_its_immutability():
    assert immutability_plumbing(SOURCES) == []


def test_the_guard_finds_planted_immutability_plumbing():
    # a guard on ExactPolynomial and on OperatorField, a slot store in a
    # plain function, one in the __post_init__ of a dataclass that is not
    # frozen, and a slot and an item of one written outside ExactPolynomial
    planted = dict(SOURCES)
    for module, slots in [("exactpoly", '    __slots__ = ("nvars", '),
                          ("operators", '    __slots__ = ("n", "entries")\n')]:
        assert slots in planted[module]
        planted[module] = planted[module].replace(
            slots, "    def __setattr__(self, name, value):\n"
            "        raise AttributeError(name)\n\n" + slots)
    planted["flows"] += ("\n\ndef planted(F):\n"
                         "    object.__setattr__(F, '_flows', None)\n"
                         "\n\ndef planted_item(poly, key):\n"
                         "    poly._nums[key] = 0\n")
    planted["metric"] += "\n\ndef planted(p):\n    p._den = 2\n"
    planted["pde"] += ("\n\n@dataclass\nclass Planted:\n    x: float\n\n"
                       "    def __post_init__(self):\n"
                       "        object.__setattr__(self, 'x', 1.0)\n")
    assert immutability_plumbing(planted) == [
        ("exactpoly", "ExactPolynomial.__setattr__"), ("flows", "planted"),
        ("flows", "planted_item"), ("metric", "planted"),
        ("operators", "OperatorField.__setattr__"),
        ("pde", "Planted.__post_init__")]


@pytest.mark.parametrize("statement, found", [
    ("p._den = 2", True),
    ("p._den += 1", True),
    ("p.nvars, q = 3, p", True),
    ("p._float_form: tuple = ()", True),
    ("del p._partials", True),
    ("p._nums[key] = 0", True),
    ("p._partials[0][key] = 0", True),
    ("del p._nums[key]", True),
    ("setattr(p, '_den', 2)", True),
    ("delattr(p, 'nvars')", True),
    ("p._nums.update(q._nums)", True),
    ("p._partials.pop(0)", True),
    ("return p._nums[key] + p._den + len(p.nvars)", False),
    ("p.n = p._float_form", False),
    ("setattr(p, key, 2)", False),
    ("return p._nums.get(key, q._nums.items())", False),
])
def test_the_guard_finds_each_way_of_writing_a_slot(statement, found):
    planted = dict(SOURCES)
    planted["metric"] += f"\n\ndef planted(p, q, key):\n    {statement}\n"
    assert immutability_plumbing(planted) == [("metric", "planted")] * found


def _passed(arguments: ast.arguments) -> list[str]:
    """A function's parameters, written as a call that passes each one on
    unchanged: ``a``, ``*rest``, ``k=k``, ``**options``."""
    return ([a.arg for a in arguments.posonlyargs + arguments.args]
            + [f"*{a.arg}" for a in [arguments.vararg] if a]
            + [f"{a.arg}={a.arg}" for a in arguments.kwonlyargs]
            + [f"**{a.arg}" for a in [arguments.kwarg] if a])


def _call_arguments(call: ast.Call) -> list:
    """The arguments of a call, written as ``_passed`` writes parameters;
    None for one that is not a plain name."""
    def name(node):
        return getattr(node, "id", None)
    return ([name(a.value) and f"*{name(a.value)}"
             if isinstance(a, ast.Starred) else name(a) for a in call.args]
            + [f"{k.arg}={name(k.value)}" if k.arg
               else f"**{name(k.value)}" for k in call.keywords])


def forwards(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Each function or method of ``sources`` (module -> text) whose body,
    docstring aside, is one ``return f(...)`` that passes the function's own
    parameters on unchanged and in order, as (module, its name) with a
    method named "Class.method", in module order."""
    found = []
    for m, text in sources.items():
        tree = ast.parse(text)
        owners = {child: f"{node.name}." for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body[ast.get_docstring(node) is not None:]
            call = (body[0].value if len(body) == 1
                    and isinstance(body[0], ast.Return) else None)
            if (isinstance(call, ast.Call)
                    and _call_arguments(call) == _passed(node.args)):
                found.append((m, owners.get(node, "") + node.name))
    return found


def test_no_function_only_forwards_its_arguments():
    assert forwards(SOURCES) == []


def test_the_guard_finds_planted_forwards():
    # a plain forward, one under a docstring, one of every kind of
    # parameter, and near misses that reorder, drop or add an argument,
    # change one, pass a parameter but not self, or have no call at all
    planted = dict(SOURCES)
    slots = '    __slots__ = ("n", "entries")\n'
    assert slots in planted["operators"]
    planted["operators"] = planted["operators"].replace(
        slots, slots + "\n    def planted(self, other):\n"
        "        return commutator(self, other)\n"
        "\n    def near(self, other):\n        return self._check(other)\n")
    planted["metric"] += (
        "\n\ndef planted(a, b):\n    return poisson_bracket(a, b)\n"
        "\n\ndef only_docs():\n    '''Docs.'''\n"
        "\n\ndef documented(a, b):\n    '''Docs.'''\n"
        "    return poisson_bracket(a, b)\n"
        "\n\ndef every_kind(a, /, b, *rest, k, **options):\n"
        "    return f(a, b, *rest, k=k, **options)\n"
        "\n\ndef reordered(a, b):\n    return poisson_bracket(b, a)\n"
        "\n\ndef dropped(a, b):\n    return poisson_bracket(a)\n"
        "\n\ndef added(a, b):\n    return poisson_bracket(a, b, 1)\n"
        "\n\ndef changed(a, b):\n    return poisson_bracket(a, -b)\n"
        "\n\ndef keyword(a, b):\n    return poisson_bracket(a, b=b)\n"
        "\n\ndef starred(a, *rest):\n    return f(a, rest)\n"
        "\n\ndef two_statements(a, b):\n    a = a\n"
        "    return poisson_bracket(a, b)\n")
    assert forwards(planted) == [
        ("metric", "planted"), ("metric", "documented"),
        ("metric", "every_kind"), ("operators", "OperatorField.planted")]


def _caught_in_main(tree: ast.Module) -> list[str]:
    """The names the ``except`` clauses of the module's ``main`` catch."""
    main = next(node for node in tree.body
                if getattr(node, "name", None) == "main")
    return [ast.unparse(kind) for node in ast.walk(main)
            if isinstance(node, ast.ExceptHandler) and node.type
            for kind in getattr(node.type, "elts", [node.type])]


def uncaught_errors(sources: dict[str, str]) -> tuple[list, list]:
    """The exception classes of ``sources`` (module -> text), as (module,
    name) in module order, and those of them that derive from no type
    ``cli.main`` catches."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    classes = {m: {node.name: node for node in tree.body
                   if isinstance(node, ast.ClassDef)}
               for m, tree in trees.items()}
    imports = {m: _relative_imports(tree) for m, tree in trees.items()}

    def resolve(module, name):
        """A class of ``sources`` as (module, name); else the object the
        expression ``name`` gives in the imported module."""
        while name not in classes[module] and name in imports[module]:
            module, name = imports[module][name]
        if name in classes[module]:
            return module, name
        return eval(name, vars(importlib.import_module(f"nijflow.{module}")))

    def ancestry(key) -> set:
        if not isinstance(key, tuple):
            return set(getattr(key, "__mro__", ()))
        module, name = key
        return {key}.union(*(ancestry(resolve(module, ast.unparse(base)))
                             for base in classes[module][name].bases))

    caught = {resolve("cli", name) for name in _caught_in_main(trees["cli"])}
    errors = [(m, name) for m, names in classes.items() for name in names
              if Exception in ancestry((m, name))]
    return errors, [key for key in errors if not ancestry(key) & caught]


def test_every_error_class_exits_2():
    errors, uncaught = uncaught_errors(SOURCES)
    assert sorted(name for _, name in errors) == [
        "CompatError", "ConfigError", "FlowError", "MetricError",
        "OperatorError", "PDEError", "ParseError", "PolynomialError",
        "SingularMetricError"]
    assert uncaught == []


def test_the_guard_finds_a_planted_uncaught_error():
    # a subclass of a caught package error or of a caught builtin is caught
    planted = dict(SOURCES)
    planted["flows"] += ("\n\nclass StrayError(RuntimeError):\n    pass\n"
                         "\n\nclass Caught(FlowError):\n    pass\n"
                         "\n\nclass CaughtOS(FileNotFoundError):\n    pass\n")
    planted["pde"] += "\n\nclass Both(OperatorField, PDEError):\n    pass\n"
    errors, uncaught = uncaught_errors(planted)
    assert {("flows", "Caught"), ("flows", "CaughtOS"),
            ("pde", "Both")} <= set(errors)
    assert uncaught == [("flows", "StrayError")]
