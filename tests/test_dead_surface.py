"""Dead-surface gate: every definition in ``src/repro`` has a non-test user.

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
``@check``), count as referenced. Run it as a script to print what it
finds as ``path:line name``.
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

#: decorators that wrap a definition without registering it anywhere
PLAIN_DECORATORS = frozenset({
    "cached_property", "classmethod", "dataclass", "lru_cache", "property",
    "runtime_checkable", "setter", "staticmethod", "total_ordering",
})

#: definitions kept on purpose although no non-test code references
#: them, keyed ``<path under src/repro>:<qualified name>``
ALLOWED = {
    "analysis/jasplugin.py:JASPlugin.histogram2d_query":
        "the JAS plug-in's 2-D plot of a grid query (§6), built on Histogram2D",
    "analysis/jasplugin.py:JASPlugin.profile_query":
        "the JAS plug-in's profile plot of a grid query (§6), built on Profile1D",
    "common/types.py:SQLType.decimal":
        "DECIMAL(p, s) constructor that DECIMAL support (ROADMAP item 13) needs",
    "engine/executor.py:RowSet.to_vector":
        "the paper's 2-D vector answer shape (§4.7 wrapper method 2)",
    "poolral/wrapper.py:PoolRALWrapper":
        "the paper's two-method JNI surface (§4.7); PAPER.md maps it here",
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


def report(root: pathlib.Path, allowed: dict[str, str]) -> list[str]:
    """Problems: an unreferenced definition not in ``allowed``, or an
    ``allowed`` entry that is referenced or no longer exists."""
    src = root / "src" / "repro"
    dead = unreferenced(root)
    keys = {d.key(src) for d in dead}
    problems = [
        f"{d.path.relative_to(root).as_posix()}:{d.line} {d.qualname}"
        for d in dead if d.key(src) not in allowed
    ]
    problems += [f"stale allow-list entry: {k}" for k in sorted(set(allowed) - keys)]
    return problems


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


if __name__ == "__main__":
    print("\n".join(report(ROOT, ALLOWED)) or "no dead surface")
