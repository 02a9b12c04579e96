"""Each request-, report- and data-layer rule is written in one place.

The package's source is parsed with ``ast``; every call or key that spells
one of the rules below is located by module and enclosing function, and the
set of those places must be the rule's one home.
"""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "senslab"


def _called(node, name: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name


def _json_dumps(node) -> bool:
    return _called(node, "dumps")


def _schema_key(node) -> bool:
    if isinstance(node, ast.Dict):
        return any(isinstance(k, ast.Constant) and k.value == "schema" for k in node.keys)
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) and node.slice.value == "schema"
    return isinstance(node, ast.keyword) and node.arg == "schema"


def _ndtri(node) -> bool:
    return _called(node, "ndtri")


def _philox_key(node) -> bool:
    return _called(node, "Philox") and any(kw.arg == "key" for kw in node.keywords)


def _print(node) -> bool:
    return _called(node, "print")


def _projected_prefix(node) -> bool:
    return (_called(node, "startswith") and bool(node.args)
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == "projected:")


def _message(node) -> str:
    """The literal text of a raised exception's first argument, each
    formatted field read as ``{}``; "" for any other node."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
        return ""
    arg = node.exc.args[0]
    parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
    return "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts
                   if isinstance(p, (ast.Constant, ast.FormattedValue)))


# The count rule's message, and the spellings it replaced.
_COUNT_MESSAGE = re.compile(r"an integer >=|needs at least \{|samples per dataset|need trials >="
                            r"|must be at least|positive integer|must be integers")


def _count_rule(node) -> bool:
    return bool(_COUNT_MESSAGE.search(_message(node)))


def _scalar_finite(node) -> bool:
    return (_called(node, "isfinite") and isinstance(node.func, ast.Attribute)
            and getattr(node.func.value, "id", None) == "math")


def _replaced_helper(node) -> bool:
    return isinstance(node, ast.FunctionDef) and node.name in {
        "_positive_n", "_require_samples", "_require_draws", "_require_trials"}


def _places(match) -> set[str]:
    """``module.qualname`` of each place in the package where ``match`` holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.add(".".join(scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [path.stem])
    return found


RULES = {
    "json-dumps": (_json_dumps, {"harness._dump_json"}),
    "record-schema": (_schema_key, {"harness._record"}),
    "normal-transform": (_ndtri, {"core._normal_in_place"}),
    "stream-key": (_philox_key, set()),
    "print": (_print, {"cli.main"}),
    "projected-prefix": (_projected_prefix, {"estimators.build_estimator"}),
    "count": (_count_rule, {"core._count"}),
    "scalar-finite": (_scalar_finite, {"core._require_finite"}),
    "replaced-count-helpers": (_replaced_helper, set()),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_has_one_home(rule):
    match, home = RULES[rule]
    assert _places(match) == home


def test_the_scan_sees_every_module():
    # A scan that parsed nothing would pass every rule above vacuously.
    assert _places(lambda node: isinstance(node, ast.Return)) >= {
        "cli.main", "harness.estimate_es", "core._normal_in_place", "estimators.build_estimator"}
