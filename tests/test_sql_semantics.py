"""One source of SQL semantics: layering, the function table, ast.transform.

* ``repro.sql`` (parser, evaluator, type inferencer) sits below both the
  engine and lint: it imports neither, and executing a SELECT on an
  engine ``Database`` never loads ``repro.lint``.
* Every scalar function carries its arity, strict-numeric arguments and
  result rule next to its implementation.
* ``ast.transform`` is the one expression rewriter.
"""

import ast as pyast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common import PlanningError
from repro.common.types import SQLType
from repro.dialects import available_vendors, get_dialect
from repro.sql import ast
from repro.sql.eval import SCALAR_FUNCTIONS, RowSchema, compile_expr
from repro.sql.infer import ExprTyper
from repro.sql.parser import parse_expression, parse_select

SRC = Path(repro.__file__).resolve().parent.parent

ENGINE_WITHOUT_LINT = """
import sys
from repro.common import SQLTypeError
from repro.engine import Database

db = Database("layers", "generic")
db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(4))")
db.execute("INSERT INTO t VALUES (1, 'x')")
assert db.execute("SELECT a + 1, UPPER(b) FROM t WHERE a > 0").rows == [(2, "X")]
try:
    db.execute("SELECT a + b FROM t")
except SQLTypeError:
    pass
else:
    raise AssertionError("type mismatch not raised")
assert "repro.lint" not in sys.modules, "executing a SELECT loaded repro.lint"
print("ok")
"""


def test_engine_runs_without_loading_lint():
    # a fresh interpreter: other tests import repro.lint in this one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    done = subprocess.run(
        [sys.executable, "-c", ENGINE_WITHOUT_LINT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def _imports(path: Path) -> set[str]:
    tree = pyast.parse(path.read_text(encoding="utf-8"))
    out: set[str] = set()
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, pyast.ImportFrom) and node.module:
            out.add(node.module)
    return out


@pytest.mark.parametrize("path", sorted((SRC / "repro" / "sql").glob("*.py")), ids=lambda p: p.name)
def test_sql_package_sits_below_engine_and_lint(path):
    for module in _imports(path):
        assert not module.startswith(("repro.lint", "repro.engine")), (path.name, module)


# -- the function table ------------------------------------------------------------

RESULT_RULES = {"double", "integer", "text", "numeric", "first", "common"}
#: built by compile_expr itself rather than through ``impl``
COMPILED_INLINE = {"CONCAT", "COALESCE", "NULLIF"}


@pytest.mark.parametrize("name", sorted(SCALAR_FUNCTIONS))
def test_function_metadata_is_complete(name):
    spec = SCALAR_FUNCTIONS[name]
    assert (spec.impl is None) == (name in COMPILED_INLINE)
    assert spec.min_args >= 1
    assert spec.max_args is None or spec.max_args >= spec.min_args
    assert spec.numeric_args is None or 0 <= spec.numeric_args <= (
        spec.max_args if spec.max_args is not None else spec.min_args
    )
    assert spec.result in RESULT_RULES
    # a call with the fewest arguments compiles, evaluates and types
    call = ast.FunctionCall(name, tuple(ast.Literal(2) for _ in range(spec.min_args)))
    compile_expr(call, RowSchema([]))(())
    findings = []
    typed = ExprTyper(lambda ref: None, lambda *f: findings.append(f)).type_of(call)
    assert findings == []
    assert typed is None or isinstance(typed, SQLType)


def test_function_table_rejects_bad_calls():
    emitted = []
    typer = ExprTyper(lambda ref: None, lambda code, *rest: emitted.append(code))
    typer.type_of(parse_expression("SUBSTR('x')"))
    typer.type_of(parse_expression("ABS('x')"))
    typer.type_of(parse_expression("ROUND(1.5, 'x')"))  # only the first is strict
    typer.type_of(parse_expression("NOPE(1)"))
    assert emitted == ["RPR105", "RPR201", "RPR104"]


def test_every_vendor_gap_names_an_engine_function():
    known = set(SCALAR_FUNCTIONS) | ast.AGGREGATE_FUNCTIONS
    for vendor in available_vendors():
        assert get_dialect(vendor).unsupported_functions <= known, vendor


# -- ast.transform ------------------------------------------------------------------

EVERY_KIND = (
    "SELECT -(a + 1), NOT (a = 1), ABS(a), a IS NULL, a IN (1, a), "
    "a BETWEEN a AND 2, b LIKE b, CASE WHEN a > 1 THEN a ELSE a END, "
    "CAST(a AS DOUBLE), a IN (SELECT a FROM t) FROM t"
)


def test_transform_reaches_every_child_kind():
    select = parse_select(EVERY_KIND)

    def rename(node):
        if isinstance(node, ast.ColumnRef):
            return ast.ColumnRef(node.column.upper(), node.table)
        return None

    for item in select.items:
        out = ast.transform(item.expr, rename)
        refs = [n for n in ast.walk(out) if isinstance(n, ast.ColumnRef)]
        assert refs and all(r.column.isupper() for r in refs), item.unparse()
        if isinstance(out, ast.InSubquery):
            assert out.select is item.expr.select  # a subquery is its own scope
        else:
            assert out.unparse() == item.expr.unparse().replace("a", "A").replace("b", "B")


def test_transform_keeps_untouched_nodes():
    expr = parse_expression("(a + 1) * ABS(b)")
    assert ast.transform(expr, lambda node: None) is expr


def test_output_names_expand_only_where_the_engine_looks():
    select = parse_select("SELECT COUNT(*) AS n, a FROM t GROUP BY a")
    names = select.output_names()
    expand = lambda sql: ast.expand_output_names(parse_expression(sql), names).unparse()  # noqa: E731
    assert expand("n > 1 AND NOT n IS NULL") == (
        "((COUNT(*) > 1) AND (NOT (COUNT(*) IS NULL)))"
    )
    assert expand("-n BETWEEN 1 AND n") == "((-COUNT(*)) BETWEEN 1 AND COUNT(*))"
    # function calls, CASE, IN and qualified refs are not searched
    assert expand("ABS(n) + t.n") == "(ABS(n) + t.n)"
    assert expand("CASE WHEN n > 1 THEN n END") == "CASE WHEN (n > 1) THEN n END"
    assert expand("n IN (1, 2)") == "(n IN (1, 2))"


def test_engine_and_lint_share_the_expansion():
    from repro.engine import Database
    from repro.lint import CatalogSchema, lint_sql

    db = Database("alias", "generic")
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(4))")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'x'), (3, 'y')")
    grouped = "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING n > 1 ORDER BY n"
    assert db.execute(grouped).rows == [("x", 2)]
    assert lint_sql(grouped, CatalogSchema(db)).errors == []
    # an alias inside a function call is not expanded by either
    hidden = "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING ABS(n) > 1"
    with pytest.raises(PlanningError):
        db.execute(hidden)
    assert "RPR301" in lint_sql(hidden, CatalogSchema(db)).codes()


def test_conjoin_inverts_conjuncts():
    expr = parse_expression("a = 1 AND b = 2 AND c = 3")
    assert ast.conjoin(ast.conjuncts(expr)) == expr
    assert ast.conjoin([]) is None


def test_clauses_cover_every_expression():
    select = parse_select(
        "SELECT a, * FROM t JOIN u ON t.a = u.a WHERE a > 1 "
        "GROUP BY a HAVING COUNT(*) > 1 ORDER BY a"
    )
    texts = [c.unparse() for c in select.clauses()]
    assert texts == [
        "a", "*", "(a > 1)", "(COUNT(*) > 1)", "(t.a = u.a)", "a", "a",
    ]
