"""Every property-based test states its example count and keeps no database.

A ``@given`` test without ``@settings(max_examples=..., database=None)``
runs hypothesis's default count and writes an example database into the
checkout, so its run time and its examples would depend on earlier runs.
"""

import ast
from pathlib import Path


def _name(node: ast.expr) -> str:
    func = node.func if isinstance(node, ast.Call) else node
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", "")


def _unsettled(tree: ast.AST) -> tuple[list, list]:
    """Names of the ``@given`` tests in ``tree``, and those among them whose
    ``@settings`` lacks ``database=None`` or an explicit ``max_examples``."""
    given, unsettled = [], []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [_name(d) for d in node.decorator_list]
        if "given" not in names:
            continue
        given.append(node.name)
        keywords = {kw.arg: kw.value
                    for d in node.decorator_list
                    if isinstance(d, ast.Call) and _name(d) == "settings"
                    for kw in d.keywords}
        database = keywords.get("database")
        if not (isinstance(database, ast.Constant) and database.value is None
                and "max_examples" in keywords):
            unsettled.append(node.name)
    return given, unsettled


def test_every_given_test_sets_its_examples_and_no_database():
    given, unsettled = [], []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        found, bad = _unsettled(ast.parse(path.read_text()))
        given += found
        unsettled += [f"{path.name}::{name}" for name in bad]
    assert given, "no @given test found: the guard looks in the wrong place"
    assert unsettled == []


def test_the_guard_flags_a_test_without_settings():
    source = '''
@given(st.integers())
def test_bare(x): pass

@settings(max_examples=5)
@given(st.integers())
def test_with_database(x): pass

@settings(database=None)
@given(st.integers())
def test_default_count(x): pass

@settings(max_examples=5, deadline=None, database=None)
@given(st.integers())
def test_settled(x): pass
'''
    given, unsettled = _unsettled(ast.parse(source))
    assert len(given) == 4
    assert unsettled == ["test_bare", "test_with_database",
                         "test_default_count"]
