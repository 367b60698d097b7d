"""Expression evaluation over row contexts."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqldb.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    Cast,
    ColumnRef,
    ExistsSubquery,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Parameter,
    ScalarSubquery,
    Star,
    UnaryOp,
)
from repro.sqldb.functions import SCALAR_FUNCTIONS, is_aggregate
from repro.sqldb.rows import AMBIGUOUS
from repro.sqldb.types import SqlType, Variant, coerce


@dataclass
class EvalContext:
    """Everything an expression needs besides the current row.

    Attributes
    ----------
    database:
        Owning database (used for UDF dispatch and subqueries).
    params:
        Positional parameters of a prepared statement.
    outer_row:
        Row of the enclosing query level, for correlated subqueries and
        LATERAL function arguments.
    aggregate_values:
        Pre-computed aggregate results keyed by ``id()`` of the aggregate
        :class:`FuncCall` node (populated by the executor's GROUP BY phase).
    """

    database: Any
    params: List[Any] = field(default_factory=list)
    outer_row: Optional[Dict[str, Any]] = None
    aggregate_values: Dict[int, Any] = field(default_factory=dict)

    def child(self, outer_row: Optional[Dict[str, Any]]) -> "EvalContext":
        """Context for a nested query level sharing database and params."""
        return EvalContext(database=self.database, params=self.params, outer_row=outer_row)


def _unwrap(value: Any) -> Any:
    """Unwrap variant values for arithmetic and comparisons."""
    if isinstance(value, Variant):
        return value.value
    return value


def _lookup(row: Dict[str, Any], key: str, ctx: EvalContext) -> Any:
    if key in row:
        value = row[key]
        if value is AMBIGUOUS:
            raise SqlCatalogError(f"column reference {key!r} is ambiguous")
        return value
    if ctx.outer_row is not None and key in ctx.outer_row:
        value = ctx.outer_row[key]
        if value is AMBIGUOUS:
            raise SqlCatalogError(f"column reference {key!r} is ambiguous")
        return value
    raise SqlCatalogError(f"column {key!r} does not exist")


def _is_true(value: Any) -> bool:
    """SQL three-valued logic collapsed for filtering: NULL counts as false."""
    return value is True


def _like_to_regex(pattern: str) -> str:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "^" + "".join(out) + "$"


def _numeric(value: Any, op: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SqlExecutionError(f"operator {op!r} expects numeric operands, got {value!r}") from None


def _apply_binary(op: str, left: Any, right: Any) -> Any:
    left = _unwrap(left)
    right = _unwrap(right)
    if op in ("and", "or"):
        if op == "and":
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return bool(left) and bool(right)
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return bool(left) or bool(right)

    if op == "||":
        if left is None or right is None:
            return None
        return f"{_text(left)}{_text(right)}"

    if left is None or right is None:
        return None

    if op in ("=", "<>", "!=", "<", "<=", ">", ">="):
        left_cmp, right_cmp = _comparable(left, right)
        if op == "=":
            return left_cmp == right_cmp
        if op in ("<>", "!="):
            return left_cmp != right_cmp
        if op == "<":
            return left_cmp < right_cmp
        if op == "<=":
            return left_cmp <= right_cmp
        if op == ">":
            return left_cmp > right_cmp
        return left_cmp >= right_cmp

    if op in ("+", "-", "*", "/", "%"):
        import datetime as _dt

        if isinstance(left, _dt.datetime) and isinstance(right, _dt.timedelta):
            return left + right if op == "+" else left - right
        a, b = _numeric(left, op), _numeric(right, op)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise SqlExecutionError("division by zero")
            return a / b
        if b == 0:
            raise SqlExecutionError("division by zero")
        return a % b

    raise SqlExecutionError(f"unsupported operator {op!r}")


def _text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _comparable(left: Any, right: Any):
    """Coerce operands so heterogeneous but compatible values compare sanely."""
    if isinstance(left, str) and isinstance(right, (int, float)) and not isinstance(right, bool):
        try:
            return float(left), float(right)
        except ValueError:
            return left, str(right)
    if isinstance(right, str) and isinstance(left, (int, float)) and not isinstance(left, bool):
        try:
            return float(left), float(right)
        except ValueError:
            return str(left), right
    if isinstance(left, bool) or isinstance(right, bool):
        return left, right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left), float(right)
    return left, right


def evaluate(expr: Expression, row: Dict[str, Any], ctx: EvalContext) -> Any:
    """Evaluate an expression for one row."""
    if isinstance(expr, Literal):
        return expr.value

    if isinstance(expr, Parameter):
        if expr.index < 1 or expr.index > len(ctx.params):
            raise SqlExecutionError(f"missing value for parameter ${expr.index}")
        return ctx.params[expr.index - 1]

    if isinstance(expr, ColumnRef):
        key = f"{expr.table}.{expr.name}" if expr.table else expr.name
        return _lookup(row, key, ctx)

    if isinstance(expr, Star):
        raise SqlExecutionError("'*' is only allowed in the select list or COUNT(*)")

    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, row, ctx)
        value = _unwrap(value)
        if expr.op == "-":
            return None if value is None else -float(value)
        if expr.op == "not":
            if value is None:
                return None
            return not bool(value)
        raise SqlExecutionError(f"unsupported unary operator {expr.op!r}")

    if isinstance(expr, BinaryOp):
        left = evaluate(expr.left, row, ctx)
        right = evaluate(expr.right, row, ctx)
        return _apply_binary(expr.op, left, right)

    if isinstance(expr, Cast):
        value = _unwrap(evaluate(expr.operand, row, ctx))
        if expr.type_name.strip().lower() == "interval":
            return SCALAR_FUNCTIONS["interval"](value)
        return coerce(value, SqlType.parse(expr.type_name))

    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, row, ctx)
        result = value is None
        return (not result) if expr.negated else result

    if isinstance(expr, Like):
        value = _unwrap(evaluate(expr.operand, row, ctx))
        pattern = _unwrap(evaluate(expr.pattern, row, ctx))
        if value is None or pattern is None:
            return None
        matched = re.match(_like_to_regex(str(pattern)), str(value)) is not None
        return (not matched) if expr.negated else matched

    if isinstance(expr, Between):
        value = _unwrap(evaluate(expr.operand, row, ctx))
        low = _unwrap(evaluate(expr.low, row, ctx))
        high = _unwrap(evaluate(expr.high, row, ctx))
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return (not result) if expr.negated else result

    if isinstance(expr, InList):
        value = _unwrap(evaluate(expr.operand, row, ctx))
        if expr.subquery is not None:
            result = ctx.database.execute_statement(expr.subquery, ctx.params, outer_row=row)
            candidates = [r[0] for r in result.rows]
        else:
            candidates = [_unwrap(evaluate(item, row, ctx)) for item in expr.items]
        # Three-valued: without a match, any NULL comparison (a NULL operand
        # or a NULL candidate) makes the answer unknown, not false.  An
        # empty subquery gives false (true for NOT IN) even for NULL.
        unknown = False
        for candidate in candidates:
            match = _apply_binary("=", value, candidate)
            if match is True:
                return not expr.negated
            unknown = unknown or match is None
        return None if unknown else expr.negated

    if isinstance(expr, CaseExpression):
        for condition, result_expr in expr.whens:
            if _is_true(evaluate(condition, row, ctx)):
                return evaluate(result_expr, row, ctx)
        if expr.default is not None:
            return evaluate(expr.default, row, ctx)
        return None

    if isinstance(expr, ScalarSubquery):
        result = ctx.database.execute_statement(expr.select, ctx.params, outer_row=row)
        if not result.rows:
            return None
        if len(result.rows) > 1:
            raise SqlExecutionError("scalar subquery returned more than one row")
        return result.rows[0][0]

    if isinstance(expr, ExistsSubquery):
        result = ctx.database.execute_statement(expr.select, ctx.params, outer_row=row)
        found = len(result.rows) > 0
        return (not found) if expr.negated else found

    if isinstance(expr, FuncCall):
        return _evaluate_call(expr, row, ctx)

    raise SqlExecutionError(f"cannot evaluate expression node {type(expr).__name__}")


def _evaluate_call(call: FuncCall, row: Dict[str, Any], ctx: EvalContext) -> Any:
    name = call.name.lower()

    if is_aggregate(name):
        if id(call) in ctx.aggregate_values:
            return ctx.aggregate_values[id(call)]
        raise SqlExecutionError(
            f"aggregate function {name!r} is not allowed in this context"
        )

    args = [evaluate(arg, row, ctx) for arg in call.args]

    udf = ctx.database.udfs.scalar(name)
    if udf is not None:
        udf.check_arity(len(args))
        return udf.func(ctx.database, *args)

    if name in SCALAR_FUNCTIONS:
        try:
            return SCALAR_FUNCTIONS[name](*[_unwrap(a) for a in args])
        except (TypeError, ValueError) as exc:
            raise SqlExecutionError(f"error in function {name}(): {exc}") from exc

    raise SqlCatalogError(f"function {name!r} does not exist")


def collect_aggregates(expr: Optional[Expression]) -> List[FuncCall]:
    """Find all aggregate FuncCall nodes inside an expression tree."""
    found: List[FuncCall] = []

    def walk(node: Any) -> None:
        if node is None:
            return
        if isinstance(node, FuncCall):
            if is_aggregate(node.name):
                found.append(node)
                return  # nested aggregates are not supported
            for arg in node.args:
                walk(arg)
            return
        if isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, Cast):
            walk(node.operand)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, CaseExpression):
            for condition, value in node.whens:
                walk(condition)
                walk(value)
            walk(node.default)

    walk(expr)
    return found
