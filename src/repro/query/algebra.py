"""Object algebra.

Section 5.3 notes the core query model needs a formal basis and that its
lower bound is nested-relational expressive power.  This module gives the
executor (and users who want to compose queries programmatically) a small
algebra over *extents* — ordered lists of object states — with the usual
operators lifted to the object setting: selection over path predicates,
projection along paths, set operations by object identity, and unnest.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.obj import ObjectState
from ..core.oid import OID
from .ast import (
    AdtPredicate,
    And,
    Comparison,
    Expr,
    MethodCall,
    Not,
    Or,
)
from .paths import Deref, compile_test, evaluate_path

#: Sends a message to an object and returns the result (late binding);
#: wired to ``Database.send`` by the executor.
Sender = Callable[[OID, str], Any]

#: A compiled WHERE: ``predicate(row, kernel)`` is true when the row
#: matches.  The kernel supplies ``deref`` (path navigation), ``send``
#: (method predicates) and ``adt_eval`` (ADT predicates).
Predicate = Callable[[Any, Any], bool]
#: Compiles a path's steps into ``values(row, kernel)``: all its
#: terminal values, fanned out (existential semantics).
PathCompiler = Callable[[Tuple[str, ...]], Callable[[Any, Any], List[Any]]]


def expression_nodes(expr: Expr) -> Iterator[Expr]:
    """``expr`` and every node below it, pre-order."""
    yield expr
    for child in expr.children():
        yield from expression_nodes(child)


def read_set(query) -> Optional[FrozenSet[str]]:
    """The attribute names a query reads, or None for whole objects.

    The union of every step of every path in the WHERE, ORDER BY,
    projections, aggregates and GROUP BY: an extent scan and every
    dereference under the plan need decode only these.  A method or ADT
    predicate hands whole objects to code the plan cannot see into, so
    it makes the read set None.
    """
    names: Set[str] = set()
    if query.where is not None:
        for node in expression_nodes(query.where):
            if isinstance(node, (MethodCall, AdtPredicate)):
                return None
            if isinstance(node, Comparison):
                names.update(node.path.steps)
    paths = list(query.projections or [])
    paths.extend(agg.path for agg in query.aggregates or [] if agg.path is not None)
    paths.extend(path for path in (query.order_by, query.group_by) if path is not None)
    for path in paths:
        names.update(path.steps)
    return frozenset(names)


def compile_path(steps: Tuple[str, ...]) -> Callable[[Any, Any], List[Any]]:
    """Terminal values of a path over object states (:func:`evaluate_path`)."""
    if len(steps) > 1:
        return lambda row, kernel: evaluate_path(row, steps, kernel.deref)
    (attribute,) = steps

    def values(row: ObjectState, kernel: Any) -> List[Any]:
        value = row.values.get(attribute)
        return value if isinstance(value, list) else [value]

    return values


def compile_predicate(expr: Expr, path: PathCompiler = compile_path) -> Predicate:
    """Compile a boolean expression into one closure over ``(row, kernel)``.

    The one predicate evaluator: compiled once per plan, it matches
    exactly as an AST walk would — existential semantics over fan-out
    values, ``compare``'s typing rules, short-circuit AND/OR in operand
    order — and dereferences exactly the same objects.  Single-step
    comparisons over object states read the attribute directly.  Method
    predicates need ``kernel.send``; ADT predicates need
    ``kernel.adt_eval`` — both raise if required but not provided.
    """
    if isinstance(expr, Comparison):
        test = compile_test(expr.op, expr.const.value)
        steps = expr.path.steps
        if path is compile_path and len(steps) == 1:
            (attribute,) = steps

            def compare_attribute(row: Any, kernel: Any) -> bool:
                value = row.values.get(attribute)
                if isinstance(value, list):
                    for element in value:
                        if test(element):
                            return True
                    return False
                return test(value)

            return compare_attribute
        values_of = path(steps)

        def compare_path(row: Any, kernel: Any) -> bool:
            for value in values_of(row, kernel):
                if test(value):
                    return True
            return False

        return compare_path
    if isinstance(expr, (And, Or)):
        parts = [compile_predicate(operand, path) for operand in expr.operands]
        if len(parts) == 2:
            first, second = parts
            if isinstance(expr, And):
                return lambda row, kernel: first(row, kernel) and second(row, kernel)
            return lambda row, kernel: first(row, kernel) or second(row, kernel)
        if isinstance(expr, And):
            return lambda row, kernel: all(part(row, kernel) for part in parts)
        return lambda row, kernel: any(part(row, kernel) for part in parts)
    if isinstance(expr, Not):
        inner = compile_predicate(expr.operand, path)
        return lambda row, kernel: not inner(row, kernel)
    if isinstance(expr, MethodCall):
        return _compile_method(expr, path)
    if isinstance(expr, AdtPredicate):

        def adt(row: Any, kernel: Any) -> bool:
            if kernel.adt_eval is None:
                raise ValueError("ADT predicates require an ADT evaluator")
            return bool(kernel.adt_eval(expr, row))

        return adt
    raise ValueError("unknown expression node %r" % (expr,))


def _compile_method(expr: MethodCall, path: PathCompiler) -> Predicate:
    test = compile_test(expr.op, expr.const.value)
    receivers_of = path(expr.path.steps) if expr.path is not None else None
    selector, args = expr.selector, tuple(expr.args)

    def method(row: Any, kernel: Any) -> bool:
        send = kernel.send
        if send is None:
            raise ValueError("method predicates require a message sender")
        if receivers_of is None:
            receivers = [row.oid]
        else:
            receivers = [
                value for value in receivers_of(row, kernel) if isinstance(value, OID)
            ]
        for receiver in receivers:
            if test(send(receiver, selector, *args)):
                return True
        return False

    return method


def select(
    extent: Iterable[ObjectState],
    predicate: Expr,
    deref: Deref,
    send: Optional[Callable[..., Any]] = None,
    adt_eval: Optional[Callable[[AdtPredicate, ObjectState], bool]] = None,
) -> Iterator[ObjectState]:
    """sigma: keep the objects satisfying the predicate."""
    matches = compile_predicate(predicate)
    kernel = SimpleNamespace(deref=deref, send=send, adt_eval=adt_eval)
    for state in extent:
        if matches(state, kernel):
            yield state


def project(
    extent: Iterable[ObjectState],
    paths: Sequence[Sequence[str]],
    deref: Deref,
) -> Iterator[Dict[str, Any]]:
    """pi: rows of {dotted path -> value(s)}.

    A path with a single terminal value is unwrapped; fan-out keeps the
    list.  Missing/broken paths yield None.
    """
    for state in extent:
        yield project_row(state, paths, deref)


def project_row(
    state: ObjectState,
    paths: Sequence[Sequence[str]],
    deref: Deref,
) -> Dict[str, Any]:
    """One projected row — the per-object kernel behind :func:`project`."""
    row: Dict[str, Any] = {}
    for steps in paths:
        values = evaluate_path(state, steps, deref)
        key = ".".join(steps)
        if not values:
            row[key] = None
        elif len(values) == 1:
            row[key] = values[0]
        else:
            row[key] = values
    return row


def union(left: Iterable[ObjectState], right: Iterable[ObjectState]) -> List[ObjectState]:
    """Set union by object identity, order-stable (left first)."""
    seen: Dict[OID, ObjectState] = {}
    for state in list(left) + list(right):
        if state.oid not in seen:
            seen[state.oid] = state
    return list(seen.values())


def intersect(left: Iterable[ObjectState], right: Iterable[ObjectState]) -> List[ObjectState]:
    right_oids = {state.oid for state in right}
    out, seen = [], set()
    for state in left:
        if state.oid in right_oids and state.oid not in seen:
            seen.add(state.oid)
            out.append(state)
    return out


def difference(left: Iterable[ObjectState], right: Iterable[ObjectState]) -> List[ObjectState]:
    right_oids = {state.oid for state in right}
    out, seen = [], set()
    for state in left:
        if state.oid not in right_oids and state.oid not in seen:
            seen.add(state.oid)
            out.append(state)
    return out


def unnest(
    extent: Iterable[ObjectState],
    attribute: str,
    deref: Deref,
) -> Iterator[ObjectState]:
    """mu: flatten a reference attribute into the referenced objects."""
    seen = set()
    for state in extent:
        value = state.values.get(attribute)
        elements = value if isinstance(value, list) else [value]
        for element in elements:
            if isinstance(element, OID) and element not in seen:
                referenced = deref(element)
                if referenced is not None:
                    seen.add(element)
                    yield referenced


def order_by(
    extent: Iterable[ObjectState],
    steps: Sequence[str],
    deref: Deref,
    descending: bool = False,
) -> List[ObjectState]:
    """Order an extent by the first terminal value of a path.

    Objects with no value sort last (regardless of direction) and ties
    break on OID so results are deterministic.
    """
    from ..index.btree import normalize_key

    def sort_key(state: ObjectState):
        values = evaluate_path(state, steps, deref)
        if not values or values[0] is None:
            return (1, (0, False), state.oid.value)
        return (0, normalize_key(values[0]), state.oid.value)

    ordered = sorted(extent, key=sort_key, reverse=descending)
    if descending:
        # Keep missing values last even in descending order.
        present = [s for s in ordered if sort_key(s)[0] == 0]
        missing = [s for s in ordered if sort_key(s)[0] == 1]
        return present + missing
    return ordered


def top_k(
    extent: Iterable[ObjectState],
    steps: Optional[Sequence[str]],
    deref: Deref,
    descending: bool,
    k: int,
) -> List[ObjectState]:
    """The first ``k`` rows of :func:`order_by`, via bounded heaps.

    O(n log k) time and O(k) extra ordering state instead of a full
    sort; returns exactly ``order_by(extent, ...)[:k]`` (and, for
    ``steps`` None, exactly the default OID order's first ``k``).  The
    whole input is still consumed — real early termination needs an
    ordered access path underneath a LIMIT instead.
    """
    if k <= 0:
        return []
    if steps is None:
        return heapq.nsmallest(k, extent, key=lambda s: s.oid.value)

    from ..index.btree import normalize_key

    def sort_key(state: ObjectState):
        values = evaluate_path(state, steps, deref)
        if not values or values[0] is None:
            return (1, (0, False), state.oid.value)
        return (0, normalize_key(values[0]), state.oid.value)

    if not descending:
        return heapq.nsmallest(k, extent, key=sort_key)
    # Descending keeps missing-value rows last (by descending OID, the
    # order a reversed full sort leaves them in).
    present: List[Any] = []
    missing: List[ObjectState] = []
    for state in extent:
        values = evaluate_path(state, steps, deref)
        if not values or values[0] is None:
            missing.append(state)
        else:
            present.append((normalize_key(values[0]), state.oid.value, state))
    top = [
        entry[2]
        for entry in heapq.nlargest(k, present, key=lambda e: (e[0], e[1]))
    ]
    if len(top) < k:
        top.extend(
            heapq.nlargest(k - len(top), missing, key=lambda s: s.oid.value)
        )
    return top


def aggregate_rows(
    query,
    extent: Iterable[ObjectState],
    deref: Deref,
) -> List[Dict[str, Any]]:
    """Fold an extent into per-group summary rows (COUNT/SUM/AVG/MIN/MAX).

    Groups order by key with the None group last; a query without GROUP
    BY folds everything into one row.
    """
    groups: Dict[Any, List[ObjectState]] = {}
    if query.group_by is None:
        groups[None] = [state for state in extent]
    else:
        for state in extent:
            values = evaluate_path(state, query.group_by.steps, deref)
            key = values[0] if values else None
            groups.setdefault(key, []).append(state)

    from ..index.btree import normalize_key

    rows: List[Dict[str, Any]] = []
    for key in sorted(
        groups, key=lambda k: (k is None, normalize_key(k) if k is not None else 0)
    ):
        members = groups[key]
        row: Dict[str, Any] = {}
        if query.group_by is not None:
            row[query.group_by.dotted()] = key
        for aggregate in query.aggregates or []:
            row[aggregate.label()] = _fold(aggregate, members, deref)
        rows.append(row)
    return rows


def _fold(aggregate, members: List[ObjectState], deref: Deref) -> Any:
    if aggregate.path is None:  # count(*)
        return len(members)
    values = []
    for state in members:
        terminal = evaluate_path(state, aggregate.path.steps, deref)
        values.extend(v for v in terminal if v is not None)
    if aggregate.fn == "count":
        return len(values)
    if not values:
        return None
    if aggregate.fn == "sum":
        return sum(values)
    if aggregate.fn == "avg":
        return sum(values) / len(values)
    if aggregate.fn == "min":
        return min(values)
    return max(values)
