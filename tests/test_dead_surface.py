"""Dead-surface gate: every definition and every knob in ``src/repro``
has a non-test user.

The scan lists each function, method and class in ``src/repro`` whose
name no ``.py`` file outside ``tests/`` references (``src``,
``benchmarks``, ``perfbench``, ``examples``, ``setup.py``). A test alone
does not keep code alive: what only a test drives is deleted with that
test, or named in :data:`ALLOWED` with the reason it stays.

A reference is, by name:

* an ``ast.Name`` or ``ast.Attribute`` (``foo``, ``x.foo``);
* a ``from m import foo`` alias, except in an ``__init__.py`` (a
  re-export is not a use);
* an identifier-shaped word in a string constant that is not a
  docstring or an ``__all__`` entry, which is how Clarens ``exposed``
  tuples, ``getattr`` names and perfbench's ``SPAN_TARGETS`` /
  ``COUNT_TARGETS`` (``"DataAccessService.execute"``) keep their
  targets alive.

A use inside the definition's own body does not count. Dunders, and
definitions registered by a decorator (``tools/validate.py``'s
``@check``), count as referenced.

The second rule flags every parameter with a default (a knob) on a
module- or class-level function or method that no call in those files
passes. A call passes a parameter when it names it as a keyword or
gives enough positionals to reach it; a ``*args`` at the call passes
every parameter. A ``**name`` that forwards the enclosing function's
own ``**name`` passes only the keywords that that function's callers
pass into it, followed through further forwards; any other ``**`` at
the call passes every parameter. Calls match the callee by name, and
``Cls(...)``, ``cls(...)`` and ``super().__init__(...)`` call
``Cls.__init__``. A pass from inside the definition's own body does not
count. The parameters of a method named in a Clarens ``exposed`` tuple
(input from the wire), ``argv`` of a CLI ``main``, and the parameters
of a definition in :data:`ALLOWED` are exempt.

The third rule flags a name that an ``import`` or ``from … import``
binds and its module never reads, in ``src``, ``tests``, ``benchmarks``
and ``examples`` (ruff's F401, which CI runs but a bare checkout may
not have). A read is an ``ast.Name`` anywhere in the module (a
lenient, scope-blind check) or a name in a string annotation. An
``__init__.py`` (its imports are re-exports), a name listed in
``__all__`` and an import line marked ``# noqa: F401`` are exempt.

Run it as a script to print what it finds as ``path:line name`` or
``path:line name(param)``.
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections import defaultdict
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: the non-test code whose references keep a definition alive
REFERENCE_ROOTS = ("src", "benchmarks", "perfbench", "examples", "setup.py")
#: the code whose imports must each be read
IMPORT_ROOTS = ("src", "tests", "benchmarks", "examples")

#: decorators that wrap a definition without registering it anywhere
PLAIN_DECORATORS = frozenset({
    "cached_property", "classmethod", "dataclass", "lru_cache", "property",
    "runtime_checkable", "setter", "staticmethod", "total_ordering",
})

#: definitions kept on purpose although no non-test code references
#: them, keyed ``<path under src/repro>:<qualified name>``, and knobs
#: kept although no non-test call passes them, keyed
#: ``<path under src/repro>:<qualified name>(<parameter>)``
ALLOWED = {
    "common/types.py:SQLType.decimal":
        "DECIMAL(p, s) constructor that DECIMAL support (ROADMAP item 13) needs",
    "driver/directory.py:Directory.register(password)":
        "tests/test_golden_query_path.py passes it and must stay unedited",
    "driver/directory.py:Directory.register(user)":
        "tests/test_golden_query_path.py passes it and must stay unedited",
    "engine/executor.py:RowSet.to_vector":
        "the paper's 2-D vector answer shape (§4.7 wrapper method 2)",
    "unity/driver.py:UnityDriver.__init__(cache)":
        "tests/test_golden_query_path.py passes it through **layers and must stay unedited",
    "unity/driver.py:UnityDriver.__init__(observe)":
        "tests/test_golden_query_path.py passes it through **layers and must stay unedited",
    "unity/driver.py:UnityDriver.__init__(resilience)":
        "tests/test_golden_query_path.py passes it through **layers and must stay unedited",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Definition(NamedTuple):
    path: pathlib.Path
    line: int
    end_line: int
    qualname: str

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def key(self, src: pathlib.Path) -> str:
        return f"{self.path.relative_to(src).as_posix()}:{self.qualname}"


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _registered(node: ast.AST) -> bool:
    return any(_decorator_name(d) not in PLAIN_DECORATORS for d in node.decorator_list)


def definitions(path: pathlib.Path, tree: ast.Module) -> list[Definition]:
    """Module- and class-level functions, methods and classes; dunders
    and decorator-registered ones are left out (they count as used)."""
    found = []

    def walk(body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            qualname = prefix + node.name
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and not _registered(node):
                found.append(Definition(path, node.lineno, node.end_lineno, qualname))
            if isinstance(node, ast.ClassDef):
                walk(node.body, qualname + ".")

    walk(tree.body, "")
    return found


def _docstring_nodes(tree: ast.Module) -> set[int]:
    """ids of string constants that document rather than reference:
    bare string statements and ``__all__`` entries."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skip.update(id(n) for n in ast.walk(node.value))
    return skip


def references(path: pathlib.Path, tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every reference in one file."""
    skip = _docstring_nodes(tree)
    is_init = path.name == "__init__.py"
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and not is_init:
            refs.extend((alias.name, node.lineno) for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            refs.extend((w, node.lineno) for w in _WORD.findall(node.value))
    return refs


class Knob(NamedTuple):
    """A parameter with a default; ``position`` is its index among the
    positionals a call gives (``None`` when keyword-only)."""

    definition: Definition
    param: str
    position: int | None

    def key(self, src: pathlib.Path) -> str:
        return f"{self.definition.key(src)}({self.param})"


class Forwarder(NamedTuple):
    """A function whose own ``**name`` a call forwards: ``callee`` is
    the name its callers match it by, ``params`` its named parameters
    (a keyword that binds one of them does not reach the ``**``)."""

    callee: str
    path: pathlib.Path
    line: int
    end_line: int
    params: frozenset[str]


class Call(NamedTuple):
    path: pathlib.Path
    line: int
    positionals: int
    keywords: frozenset[str]
    #: a ``*args``, or a ``**`` other than the enclosing function's own,
    #: passes every parameter
    starred: bool
    #: the enclosing function whose own ``**name`` this call forwards
    forwards: Forwarder | None = None


def _exposed(cls: ast.ClassDef) -> set[str]:
    """The method names in a class's Clarens ``exposed`` tuple."""
    for node in cls.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "exposed" for t in targets):
            return {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return set()


def knobs(path: pathlib.Path, tree: ast.Module) -> list[Knob]:
    """The defaulted parameters of module- and class-level functions
    and methods, less the exempt ones."""
    found = []

    def walk(body, prefix, exposed):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".", _exposed(node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in exposed:
                definition = Definition(path, node.lineno, node.end_lineno, prefix + node.name)
                args = node.args
                positional = args.posonlyargs + args.args
                bound = bool(prefix) and "staticmethod" not in map(_decorator_name, node.decorator_list)
                first_default = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first_default:], first_default):
                    found.append(Knob(definition, arg.arg, i - bound))
                found.extend(
                    Knob(definition, arg.arg, None)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                )

    walk(tree.body, "", set())
    return [k for k in found if not (k.definition.qualname == "main" and k.param == "argv")]


def calls(path: pathlib.Path, tree: ast.Module) -> dict[str, list[Call]]:
    """Every call in one file, keyed by the callee name it matches:
    a function or method name, or ``Cls.__init__`` for a construction."""
    found: dict[str, list[Call]] = defaultdict(list)

    def visit(node, cls, funcs):
        if isinstance(node, ast.ClassDef):
            cls = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs = (*funcs, (node, cls))
        elif isinstance(node, ast.Call):
            func = node.func
            names = []
            if isinstance(func, ast.Name):
                callee = cls.name if func.id == "cls" and cls is not None else func.id
                names = [callee, callee + ".__init__"]
            elif isinstance(func, ast.Attribute):
                names = [func.attr]
                if (func.attr == "__init__" and isinstance(func.value, ast.Call)
                        and isinstance(func.value.func, ast.Name)
                        and func.value.func.id == "super" and cls is not None):
                    names = [_decorator_name(b) + ".__init__" for b in cls.bases]
            forwards = None
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            for k in node.keywords:
                if k.arg is None:
                    forwarder = _forwarder(path, k.value, funcs)
                    forwards = forwards or forwarder
                    starred = starred or forwarder is None
            call = Call(
                path, node.lineno,
                sum(not isinstance(a, ast.Starred) for a in node.args),
                frozenset(k.arg for k in node.keywords if k.arg is not None),
                starred, forwards,
            )
            for name in names:
                found[name].append(call)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, funcs)

    visit(tree, None, ())
    return found


def _forwarder(path: pathlib.Path, value: ast.expr, funcs) -> Forwarder | None:
    """The innermost enclosing function whose own ``**name`` ``value``
    is, or None when it is anything else."""
    if not isinstance(value, ast.Name):
        return None
    for func, cls in reversed(funcs):
        args = func.args
        if args.kwarg is not None and args.kwarg.arg == value.id:
            in_class = cls is not None and func in cls.body
            callee = f"{cls.name}.__init__" if in_class and func.name == "__init__" else func.name
            named = args.posonlyargs + args.args + args.kwonlyargs
            return Forwarder(callee, path, func.lineno, func.end_lineno,
                             frozenset(a.arg for a in named))
        if any(a.arg == value.id for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)):
            return None
    return None


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def reference_files(root: pathlib.Path) -> list[pathlib.Path]:
    files = []
    for name in REFERENCE_ROOTS:
        path = root / name
        files += [path] if path.is_file() else sorted(path.rglob("*.py"))
    return files


def unreferenced(root: pathlib.Path) -> list[Definition]:
    """Definitions in ``root/src/repro`` that no non-test file references."""
    src = root / "src" / "repro"
    defs: list[Definition] = []
    uses: dict[str, list[tuple[pathlib.Path, int]]] = defaultdict(list)
    for path in reference_files(root):
        tree = _parse(path)
        if src in path.parents:
            defs.extend(definitions(path, tree))
        for name, line in references(path, tree):
            uses[name].append((path, line))
    return [
        d for d in defs
        if not any(p != d.path or not d.line <= line <= d.end_line
                   for p, line in uses.get(d.name, ()))
    ]


def unpassed(root: pathlib.Path, allowed: dict[str, str]) -> list[Knob]:
    """Knobs in ``root/src/repro`` that no non-test call passes, less
    those of a definition (or of a class) in ``allowed``."""
    src = root / "src" / "repro"
    found: list[Knob] = []
    by_callee: dict[str, list[Call]] = defaultdict(list)
    for path in reference_files(root):
        tree = _parse(path)
        if src in path.parents:
            found.extend(knobs(path, tree))
        for name, sites in calls(path, tree).items():
            by_callee[name].extend(sites)

    def outside(call, path, line, end_line):
        return call.path != path or not line <= call.line <= end_line

    def forwarded(fwd: Forwarder, seen: frozenset) -> frozenset | None:
        """The keywords ``fwd``'s callers pass into its ``**`` (None:
        every keyword)."""
        keys = set()
        for call in by_callee.get(fwd.callee, ()):
            if not outside(call, fwd.path, fwd.line, fwd.end_line):
                continue
            if call.starred:
                return None
            keys |= call.keywords
            if call.forwards is not None and call.forwards not in seen:
                inner = forwarded(call.forwards, seen | {call.forwards})
                if inner is None:
                    return None
                keys |= inner
        return frozenset(keys - fwd.params)

    def passes(call, knob):
        if call.starred or knob.param in call.keywords or (
                knob.position is not None and knob.position < call.positionals):
            return True
        if call.forwards is None:
            return False
        keys = forwarded(call.forwards, frozenset({call.forwards}))
        return keys is None or knob.param in keys

    def passed(knob):
        d = knob.definition
        callee = d.qualname.rsplit(".", 2)[-2] + ".__init__" if d.name == "__init__" else d.name
        return any(
            passes(call, knob) and outside(call, d.path, d.line, d.end_line)
            for call in by_callee.get(callee, ())
        )

    def exempt(knob):
        # a definition in ``allowed`` keeps its knobs, and a class its methods'
        path, qualname = knob.definition.key(src).split(":")
        parts = qualname.split(".")
        return any(f"{path}:{'.'.join(parts[:i])}" in allowed for i in range(1, len(parts) + 1))

    return [k for k in found if not exempt(k) and not passed(k)]


def report(root: pathlib.Path, allowed: dict[str, str]) -> list[str]:
    """Problems: an unreferenced definition or an unpassed knob not in
    ``allowed``, or an ``allowed`` entry that is used or no longer
    exists."""
    src = root / "src" / "repro"
    found = [(d, d.key(src), d.qualname) for d in unreferenced(root)]
    found += [(k.definition, k.key(src), f"{k.definition.qualname}({k.param})")
              for k in unpassed(root, allowed)]
    problems = [
        f"{d.path.relative_to(root).as_posix()}:{d.line} {name}"
        for d, key, name in found if key not in allowed
    ]
    keys = {key for _, key, _ in found}
    problems += [f"stale allow-list entry: {k}" for k in sorted(set(allowed) - keys)]
    return problems


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: every ``ast.Name``, the names inside
    string annotations, and the entries of ``__all__``."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return read


def unused_imports(root: pathlib.Path) -> list[str]:
    """``path:line name`` for each imported name its module never reads."""
    found = []
    for top in IMPORT_ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            tree = ast.parse(text, filename=str(path))
            read = _read_names(tree)
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name != "*" and bound not in read:
                        found.append(f"{path.relative_to(root).as_posix()}:{node.lineno} {bound}")
    return found


# ---------------------------------------------------------------- the gate


def test_no_dead_surface_in_src():
    problems = report(ROOT, ALLOWED)
    assert not problems, (
        "definitions no non-test code references (delete them, or add "
        "'<path>:<name>': '<reason>' to ALLOWED), or stale entries:\n  "
        + "\n  ".join(problems)
    )


def test_every_allowed_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_import_is_read():
    unused = unused_imports(ROOT)
    assert not unused, (
        "imported names their module never reads (delete the import, or mark "
        "the line '# noqa: F401 - <reason>'):\n  " + "\n  ".join(unused)
    )


# ------------------------------------------------- the scanner on a toy tree


def _tree(tmp_path, files: dict[str, str]) -> pathlib.Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def _names(root) -> list[str]:
    return [d.qualname for d in unreferenced(root)]


def test_scanner_flags_what_only_tests_reference(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "from repro.mod import used, exported\n__all__ = ['exported']\n",
        "src/repro/mod.py": (
            '"""mentions docstring_only"""\n'
            "def used(): return 1\n"
            "def exported(): return 2\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def docstring_only(): pass\n"
            "def tested(): pass\n"
            "class K:\n"
            "    def __repr__(self): return ''\n"
            "    def m(self): return self.m()\n"
            "    def n(self): return K()\n"
        ),
        "examples/demo.py": "from repro.mod import used\nused()\nk.n()\n",
        "tests/test_mod.py": "from repro.mod import tested\ntested()\n",
    })
    assert _names(root) == ["exported", "recursive", "docstring_only", "tested", "K", "K.m"]


def test_scanner_counts_strings_decorators_and_other_modules(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "def check(fn): return fn\n"
            "@check\n"
            "def registered(): pass\n"
            "@property\n"
            "def plain(self): pass\n"
            "class Service:\n"
            "    exposed = ('ping',)\n"
            "    def ping(self): pass\n"
            "    def execute(self): pass\n"
        ),
        "src/repro/user.py": "from repro.mod import check\n",
        "perfbench/targets.py": "TARGETS = (('repro.mod', 'Service.execute'),)\n",
    })
    assert _names(root) == ["plain"]


def test_report_names_stale_allow_list_entries(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def kept(): pass\ndef live(): pass\n",
        "examples/demo.py": "from repro.mod import live\n",
    })
    assert report(root, {"mod.py:kept": "api"}) == []
    assert report(root, {"mod.py:kept": "api", "mod.py:live": "api", "mod.py:gone": "api"}) == [
        "stale allow-list entry: mod.py:gone",
        "stale allow-list entry: mod.py:live",
    ]
    assert report(root, {}) == ["src/repro/mod.py:1 kept"]



# ------------------------------------------------ the knob rule on a toy tree


def _knobs(root) -> list[str]:
    return [f"{k.definition.qualname}({k.param})" for k in unpassed(root, {})]


def test_knob_passed_by_keyword_stays(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def f(a, b=1, c=2): pass\n",
        "examples/demo.py": "f(0, c=3)\n",
    })
    assert _knobs(root) == ["f(b)"]


def test_knob_reached_positionally_stays(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "def f(a, b=1, c=2, *, d=3): pass\n"
            "class K:\n"
            "    def m(self, x=1, y=2): pass\n"
            "    @staticmethod\n"
            "    def s(x=1, y=2): pass\n"
        ),
        "examples/demo.py": "f(0, 1)\nk.m(1)\nK.s(1)\n",
    })
    assert _knobs(root) == ["f(c)", "f(d)", "K.m(y)", "K.s(y)"]


def test_star_args_at_a_call_keep_every_knob(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def f(a=1, b=2): pass\ndef g(a=1, b=2): pass\ndef h(a=1): pass\n",
        "examples/demo.py": "f(**options)\ng(*values)\nh()\n",
    })
    assert _knobs(root) == ["h(a)"]


def test_a_forwarded_own_double_star_passes_only_its_callers_keywords(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "def f(a=1, b=2): pass\n"
            "def wrap(**opts):\n"
            "    return f(**opts)\n"
            "class K:\n"
            "    def __init__(self, c=3, d=4): pass\n"
            "class Maker:\n"
            "    def __init__(self, name=None, **opts):\n"
            "        self.k = K(**opts)\n"
        ),
        "examples/demo.py": "wrap(a=0)\nMaker(name='x', d=5)\n",
    })
    assert _knobs(root) == ["f(b)", "K.__init__(c)"]


def test_a_two_level_forward_passes_the_outer_callers_keywords(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "def f(a=1, b=2, x=3): pass\n"
            "def mid(x=0, **opts):\n"
            "    return f(**opts)\n"
            "def top(**opts):\n"
            "    return mid(**opts)\n"
        ),
        "examples/demo.py": "top(a=1, x=2)\n",
    })
    # ``x`` binds mid's own parameter, so only ``a`` reaches f
    assert _knobs(root) == ["f(b)", "f(x)"]


def test_star_args_still_pass_everything(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "def f(a=1, b=2): pass\n"
            "def g(a=1, b=2): pass\n"
            "def narrow(**opts):\n"
            "    return f(**opts)\n"
            "def wide(*args, **opts):\n"
            "    return g(*args, **opts)\n"
        ),
        "examples/demo.py": "narrow(a=0)\nwide(a=0)\n",
    })
    assert _knobs(root) == ["f(b)"]


def test_a_double_star_that_is_not_the_own_parameter_passes_everything(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "def f(a=1, b=2): pass\n"
            "def g(a=1, b=2): pass\n"
            "def h(a=1, b=2): pass\n"
            "def narrow(**opts):\n"
            "    return f(**opts)\n"
            "def copied(**opts):\n"
            "    options = dict(opts)\n"
            "    return g(**options)\n"
            "def shadowed(**opts):\n"
            "    def inner(opts):\n"
            "        return h(**opts)\n"
            "    return inner\n"
        ),
        "examples/demo.py": "narrow(a=0)\ncopied(a=0)\n",
    })
    assert _knobs(root) == ["f(b)"]


def test_an_unforwarded_double_star_with_a_starred_caller_passes_everything(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "def f(a=1, b=2): pass\n"
            "def wrap(**opts):\n"
            "    return f(**opts)\n"
        ),
        "examples/demo.py": "wrap(**settings)\n",
        "tests/test_mod.py": "wrap(b=1)\n",
    })
    assert _knobs(root) == []


def test_constructions_cls_and_super_call_init(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "class Base:\n"
            "    def __init__(self, a=1, b=2): pass\n"
            "class Child(Base):\n"
            "    def __init__(self, c=3):\n"
            "        super().__init__(a=c)\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return cls(c=1)\n"
            "class Other:\n"
            "    def __init__(self, d=4): pass\n"
        ),
        "examples/demo.py": "Other(5)\n",
    })
    assert _knobs(root) == ["Base.__init__(b)"]


def test_a_recursive_self_pass_does_not_count(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "def walk(node, depth=0):\n"
            "    return walk(node, depth + 1)\n"
            "class T:\n"
            "    def visit(self, n, seen=None):\n"
            "        return self.visit(n, seen=set())\n"
        ),
        "examples/demo.py": "walk(1)\nT().visit(2)\n",
    })
    assert _knobs(root) == ["walk(depth)", "T.visit(seen)"]


def test_a_test_only_pass_does_not_count(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def f(a, b=1): pass\n",
        "examples/demo.py": "f(0)\n",
        "tests/test_mod.py": "f(0, b=2)\n",
    })
    assert _knobs(root) == ["f(b)"]


def test_wire_methods_and_cli_argv_are_exempt(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": (
            "class Service:\n"
            "    exposed = ('query',)\n"
            "    def query(self, sql, params=None): pass\n"
            "    def admin(self, force=False): pass\n"
            "def main(argv=None): pass\n"
            "def helper(argv=None): pass\n"
        ),
    })
    assert _knobs(root) == ["Service.admin(force)", "helper(argv)"]


def test_report_names_stale_knob_entries(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def f(a=1, b=2): pass\nclass K:\n    def m(self, c=3): pass\n",
        "examples/demo.py": "f(a=0)\nMETHOD = 'm'\n",
    })
    # an allowed class keeps its methods' knobs
    assert report(root, {"mod.py:f(b)": "api", "mod.py:K": "api"}) == []
    assert report(root, {
        "mod.py:f(a)": "api", "mod.py:f(b)": "api", "mod.py:f(gone)": "api", "mod.py:K": "api",
    }) == ["stale allow-list entry: mod.py:f(a)", "stale allow-list entry: mod.py:f(gone)"]
    assert report(root, {"mod.py:K": "api"}) == ["src/repro/mod.py:1 f(b)"]


# ------------------------------------------- the unused-import rule on a toy tree


def test_unused_import_rule(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "from repro.mod import f\n",
        "src/repro/mod.py": (
            "from __future__ import annotations\n"
            "import os\n"
            "import os.path\n"
            "import json as j\n"
            "from typing import Any, Optional\n"
            "from repro.other import kept  # noqa: F401 - a binding other code patches\n"
            "from repro.other import (\n"
            "    listed,\n"
            "    unread,\n"
            ")\n"
            "__all__ = ['listed']\n"
            "def f(x: 'Optional[int]') -> Any:\n"
            "    import re\n"
            "    return os.sep\n"
        ),
        "tests/test_mod.py": "import pytest\nfrom repro.mod import f\nf(1)\n",
        "examples/demo.py": "import sys\nprint(sys.argv)\n",
        "benchmarks/bench.py": "from repro.mod import f, g\ng()\n",
    })
    assert unused_imports(root) == [
        "src/repro/mod.py:4 j",
        "src/repro/mod.py:7 unread",
        "src/repro/mod.py:13 re",
        "tests/test_mod.py:1 pytest",
        "benchmarks/bench.py:1 f",
    ]


if __name__ == "__main__":
    print("\n".join(report(ROOT, ALLOWED) + unused_imports(ROOT)) or "no dead surface")
