"""Path evaluation along the aggregation hierarchy.

Evaluating ``v.manufacturer.location`` on a vehicle requires fetching the
referenced company — this module is where queries "join" through object
references.  Set-valued steps fan out; path predicates use existential
semantics (the predicate holds if *any* terminal value satisfies it),
the standard reading for OODB path queries.
"""

from __future__ import annotations

import fnmatch
import operator
import re
from typing import Any, Callable, List, Optional, Sequence

from ..core.obj import ObjectState
from ..core.oid import OID
from ..core.schema import Schema
from ..errors import QueryError

Deref = Callable[[OID], Optional[ObjectState]]

_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def evaluate_path(
    state: ObjectState,
    steps: Sequence[str],
    deref: Deref,
) -> List[Any]:
    """All terminal values of a path from one object.

    Broken chains (None or dangling intermediate references) contribute
    nothing.  Terminal OID values are returned as OIDs (so reference
    equality predicates work).
    """
    frontier: List[ObjectState] = [state]
    values: List[Any] = []
    for step_no, attr_name in enumerate(steps):
        is_last = step_no == len(steps) - 1
        next_frontier: List[ObjectState] = []
        for obj in frontier:
            value = obj.values.get(attr_name)
            elements = value if isinstance(value, list) else [value]
            for element in elements:
                if is_last:
                    values.append(element)
                    continue
                if not isinstance(element, OID):
                    continue
                referenced = deref(element)
                if referenced is not None:
                    next_frontier.append(referenced)
        frontier = next_frontier
        if is_last:
            break
    return values


def validate_path(schema: Schema, target_class: str, steps: Sequence[str]) -> str:
    """Semantic check of a path against the schema.

    Returns the domain class of the terminal attribute.  Delegates to the
    shared resolver in :mod:`repro.analysis.resolve` (the same walk the
    semantic analyzer uses), raising :class:`~repro.errors.QueryError`
    where the analyzer would emit a diagnostic.
    """
    # Local import: repro.analysis.semantic imports repro.query.ast, so a
    # module-level import here would tie the two packages into a knot.
    from ..analysis.resolve import resolve_path

    resolution = resolve_path(schema, target_class, steps)
    if not resolution.ok:
        raise QueryError("path %r: %s" % (".".join(steps), resolution.failure))
    assert resolution.domain is not None
    return resolution.domain


def compare(op: str, candidate: Any, literal: Any) -> bool:
    """Apply one comparison operator to a terminal value and a literal."""
    return compile_test(op, literal)(candidate)


def compile_test(op: str, literal: Any) -> Callable[[Any], bool]:
    """``compare(op, candidate, literal)`` as a one-argument closure,
    with the literal's type checks and the LIKE pattern done once.

    Equality never equates an OID with a non-OID, nor a bool with a
    non-bool; ordering is false against None and on a TypeError; LIKE
    is SQL LIKE (``%`` any run, ``_`` any one character) on strings."""
    if op in ("=", "contains"):
        # contains compares a set-valued terminal against a member
        # literal; the path's fan-out already happened, so it is =.
        return _equals(literal)
    if op == "!=":
        equals = _equals(literal)
        return lambda candidate: not equals(candidate)
    if op == "in":
        members = [_equals(item) for item in literal]
        return lambda candidate: any(equals(candidate) for equals in members)
    if op == "like":
        if not isinstance(literal, str):
            return lambda candidate: False
        match = re.compile(fnmatch.translate(like_pattern(literal))).match
        return lambda candidate: isinstance(candidate, str) and match(candidate) is not None
    ordering = _ORDERINGS.get(op)
    if ordering is None:
        raise QueryError("unknown comparison operator %r" % (op,))
    if literal is None:
        return lambda candidate: False

    def ordered(candidate: Any) -> bool:
        if candidate is None:
            return False
        try:
            return ordering(candidate, literal)
        except TypeError:
            return False

    return ordered


def _equals(literal: Any) -> Callable[[Any], bool]:
    if isinstance(literal, OID):
        return lambda candidate: isinstance(candidate, OID) and candidate == literal
    if isinstance(literal, bool):
        return lambda candidate: candidate is literal
    return lambda candidate: candidate == literal and not isinstance(
        candidate, (bool, OID)
    )


def like_pattern(pattern: str) -> str:
    """A SQL LIKE pattern as an ``fnmatch`` pattern."""
    return (
        pattern.replace("\\", "\\\\")
        .replace("*", "[*]")
        .replace("?", "[?]")
        .replace("%", "*")
        .replace("_", "?")
    )
