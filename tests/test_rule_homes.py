"""Each request-, report-, data- and estimator-domain rule is written in one place.

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
    """JSON text: ``json.dumps``, or the string encoder ``_dump_json`` writes it with."""
    return _called(node, "dumps") or _called(node, "encode_basestring_ascii")


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


def _philox_state(node) -> bool:
    """A Philox state dict: the stream key as the state setter reads it."""
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == "key" for k in node.keys)


def _print(node) -> bool:
    return _called(node, "print")


def _name_split(node) -> bool:
    """A split, partition or prefix test of a string at a literal holding ":"."""
    return (any(_called(node, f) for f in ("split", "rsplit", "partition", "rpartition",
                                           "startswith", "removeprefix"))
            and any(isinstance(a, ast.Constant) and ":" in str(a.value) for a in node.args))


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


def _takes_scalar(node) -> bool:
    if isinstance(node, ast.Compare):
        return (isinstance(node.left, ast.Attribute) and node.left.attr == "output_dim"
                and any(isinstance(c, ast.Constant) and c.value == 1 for c in node.comparators))
    return bool(re.search(r"takes a scalar (estimator|statistic)|to scalar estimators only",
                          _message(node)))


def _binary_entries(node) -> bool:
    """``(x == 0.0) | (x == 1.0)``, or the message of its rejection."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [node.left, node.right]
        return all(isinstance(e, ast.Compare) and isinstance(e.ops[0], ast.Eq)
                   and isinstance(e.comparators[0], ast.Constant) for e in sides) and {
            e.comparators[0].value for e in sides} == {0.0, 1.0}
    return "requires entries in {0, 1}" in _message(node)


def _bernoulli_data(node) -> bool:
    return "requires a BernoulliModel for the clean data" in _message(node)


def _nonempty_budget(node) -> bool:
    return _called(node, "require_nonempty")


def _bernoulli_data_call(node) -> bool:
    return _called(node, "_require_bernoulli_data")


def _trials_count(node) -> bool:
    return (_called(node, "_count") and bool(node.args) and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "trials")


def _adversary_lookup(node) -> bool:
    """``_ADVERSARIES[name]`` or ``_ADVERSARIES.get(name)``."""
    if isinstance(node, ast.Subscript):
        return getattr(node.value, "id", None) == "_ADVERSARIES"
    return (_called(node, "get") and isinstance(node.func, ast.Attribute)
            and getattr(node.func.value, "id", None) == "_ADVERSARIES")


def _layer_guard(node) -> bool:
    return _message(node).startswith("layer guard")


def _ball_guard(node) -> bool:
    """The enumerated ball's two guards: the uint32 mask width and the point count."""
    return _message(node).startswith(("flip masks are uint32", "enumeration guard: ball size"))


def _ball_binary(node) -> bool:
    return "enumerates binary corruptions" in _message(node)


def _ball_path_call(node) -> bool:
    return _called(node, "_layer_path")


def _layer_guard_call(node) -> bool:
    return _called(node, "_require_layer_bytes")


def _record_call(node) -> bool:
    return _called(node, "_record")


def _estimator_build(node) -> bool:
    return _called(node, "build_estimator")


def _budget_build(node) -> bool:
    return _called(node, "from_eta")


def _budget_size(node) -> bool:
    return _message(node).startswith("budget is for n=")


def _probability_range(node) -> bool:
    return "must lie in [0, 1]" in _message(node)


def _scalar_rows(node) -> bool:
    return "scalar (d = 1) data" in _message(node)


def _out_of_reach(node) -> bool:
    return "is out of reach at" in _message(node)


def _names_literal(node) -> bool:
    return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
            and any(getattr(t, "id", None) == "ESTIMATOR_NAMES" for t in node.targets))


def _replaced_helper(node) -> bool:
    return isinstance(node, ast.FunctionDef) and node.name in {
        "_positive_n", "_require_samples", "_require_draws", "_require_trials"}


def _overflow_raise(node) -> bool:
    return "result overflows" in _message(node)


def _exp_overflow_compare(node) -> bool:
    """A comparison with ``_EXP_OVERFLOW``, the exponent past which exp overflows."""
    return isinstance(node, ast.Compare) and any(
        getattr(side, "id", None) == "_EXP_OVERFLOW" for side in (node.left, *node.comparators))


# The request fields a report may declare.
_REQUEST_FIELDS = {"estimator", "adversary", "n", "d", "eta", "k", "q", "trials", "seed", "delta",
                   "prior"}


def _reads_job(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "job" for n in ast.walk(node))


def _request_field_from_job(node) -> bool:
    """A keyword or dict entry named for a request field whose value reads ``job``."""
    if isinstance(node, ast.keyword):
        return node.arg in _REQUEST_FIELDS and _reads_job(node.value)
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value in _REQUEST_FIELDS and _reads_job(v)
        for k, v in zip(node.keys, node.values))


def _json_method(node) -> bool:
    """A definition of a record writer: ``to_json`` or ``to_json_dict``."""
    return isinstance(node, ast.FunctionDef) and node.name in {"to_json", "to_json_dict"}


def _trial_stream_id(node) -> bool:
    """A stream keyed, or a range of stream ids bounded, by a trial's id:
    ``2 * t``, ``2 * t + role`` or ``2 * t - c``."""
    def doubled(e) -> bool:
        return (isinstance(e, ast.BinOp) and isinstance(e.op, ast.Mult)
                and any(isinstance(s, ast.Constant) and s.value == 2 for s in (e.left, e.right)))

    return any(_called(node, f) for f in ("at", "RngStream", "range")) and any(
        doubled(a) or (isinstance(a, ast.BinOp) and isinstance(a.op, (ast.Add, ast.Sub))
                       and doubled(a.left))
        for a in node.args)


def _over_budget_zero(node) -> bool:
    """A trial's score zeroed by its feasibility: ``x[~feasible] = ...`` or
    ``np.where(feasible, ...)``."""
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Subscript) and isinstance(t.slice, ast.UnaryOp)
                   and isinstance(t.slice.op, ast.Invert)
                   and getattr(t.slice.operand, "id", None) == "feasible" for t in node.targets)
    return (_called(node, "where") and bool(node.args)
            and getattr(node.args[0], "id", None) == "feasible")


def _median_rank(node) -> bool:
    """``(n + 1) // 2``, the median's 1-based rank m, in place of ``_median_index``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.right, ast.Constant) and node.right.value == 2
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
            and isinstance(node.left.right, ast.Constant) and node.left.right.value == 1)


def _sites(match) -> list[str]:
    """``module.qualname`` of each node in the package where ``match`` holds,
    once per node."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(".".join(scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [path.stem])
    return found


def _places(match) -> set[str]:
    """``module.qualname`` of each place in the package where ``match`` holds."""
    return set(_sites(match))


RULES = {
    "json-dumps": (_json_dumps, {"harness._dump_json"}),
    "record-schema": (_schema_key, {"harness._record"}),
    "report-request-fields": (_request_field_from_job, {"harness._report"}),
    "report-json-walk": (_json_method, {"harness._Report", "harness.UnboundedSensitivityError"}),
    "record-call": (_record_call, {"harness._Report.to_json_dict",
                                   "harness.UnboundedSensitivityError.to_json_dict"}),
    "estimator-build": (_estimator_build, {"harness._gaussian_point", "harness._request"}),
    "budget-build": (_budget_build, {"harness._request", "adversaries.tv_coupling_adversary"}),
    "normal-transform": (_ndtri, {"core._normal_in_place"}),
    "stream-key": (_philox_key, set()),
    "stream-state": (_philox_state, {"core._Rekeyer.__init__"}),
    "trial-stream-id": (_trial_stream_id, {"harness._stream_ids"}),
    "over-budget-zero": (_over_budget_zero, {"harness._run_pairs"}),
    "median-rank": (_median_rank, set()),
    "print": (_print, {"cli.main"}),
    "takes-scalar": (_takes_scalar, {"estimators._require_scalar"}),
    "binary-entries": (_binary_entries, {"estimators._require_binary"}),
    "bernoulli-data": (_bernoulli_data, {"harness._require_bernoulli_data"}),
    "layer-guard": (_layer_guard, {"estimators._require_layer_bytes"}),
    "layer-guard-call": (_layer_guard_call, {"estimators._LayerStack.table",
                                             "adversaries._layer_path"}),
    "ball-guards": (_ball_guard, {"adversaries._layer_path"}),
    "ball-binary": (_ball_binary, {"harness._ball_only"}),
    "ball-path-call": (_ball_path_call, {"adversaries.hamming_ball_sup", "harness._ball_only",
                                         "harness._ball_pairs"}),
    "budget-size": (_budget_size, {"core.CorruptionBudget.require_n"}),
    "probability-range": (_probability_range, {"bernoulli.BernoulliModel.__post_init__"}),
    "scalar-rows": (_scalar_rows, {"core._require_scalar_rows"}),
    "out-of-reach": (_out_of_reach, {"analysis._require_reach"}),
    "nonempty-budget": (_nonempty_budget, {"harness._request", "adversaries.local_shift_adversary",
                                           "adversaries.block_resample"}),
    "bernoulli-data-call": (_bernoulli_data_call, {"harness._request"}),
    "adversary-lookup": (_adversary_lookup, {"harness._request"}),
    "estimator-names-literal": (_names_literal, set()),
    "count": (_count_rule, {"core._count"}),
    "scalar-finite": (_scalar_finite, {"core._require_finite"}),
    "replaced-count-helpers": (_replaced_helper, set()),
    "exp-overflow-raise": (_overflow_raise, {"analysis._exp_arg"}),
    "exp-overflow-compare": (_exp_overflow_compare, {"analysis._exp_arg",
                                                     "analysis._expm1_excess"}),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_has_one_home(rule):
    match, home = RULES[rule]
    assert _places(match) == home


def test_the_harness_counts_trials_in_its_request_only():
    # Every experiment's request, estimate_es's and the obstructions', is built
    # by _request; the analysis checkers count their own draws.
    assert {place for place in _places(_trials_count)
            if place.startswith("harness.")} == {"harness._request"}


def _point_cast(node) -> bool:
    """An ``int`` or ``float`` of a value read from a sweep ``point``."""
    return (_called(node, "int") or _called(node, "float")) and any(
        isinstance(n, ast.Name) and n.id == "point" for n in ast.walk(node))


def test_a_sweep_point_is_a_plain_request():
    # Each point is checked by the builders of an estimate_es request alone:
    # the sweep counts nothing, resolves no worker cap and casts no point value.
    sweep = "harness.scaling_sweep"
    for match in (lambda node: _called(node, "_count"),
                  lambda node: _called(node, "_worker_cap"), _point_cast):
        assert sweep not in _places(match)
    for builder in ("_gaussian_point", "_request"):
        assert sweep in _places(lambda node: _called(node, builder))


def test_a_registry_name_is_split_once_in_build_estimator():
    assert _sites(_name_split) == ["estimators.build_estimator"]


def test_bernoulli_imports_nothing_from_adversaries():
    def from_adversaries(node) -> bool:
        return isinstance(node, ast.ImportFrom) and node.module == "adversaries"

    importers = _places(from_adversaries)
    assert "bernoulli" not in importers and "harness" in importers


def test_the_scan_sees_every_module():
    # A scan that parsed nothing would pass every rule above vacuously.
    assert _places(lambda node: isinstance(node, ast.Return)) >= {
        "cli.main", "harness.estimate_es", "core._normal_in_place", "estimators.build_estimator"}
