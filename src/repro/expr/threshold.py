"""Threshold (k-of-N) expression nodes and symmetric-function helpers.

``Threshold(k, operands)`` is true at a row exactly when at least ``k``
of its operands are true there — the symmetric boolean function of
Kaser & Lemire's "beyond unions and intersections", generalizing the
paper's wide membership disjunctions: ``Threshold(1, ...)`` is OR,
``Threshold(n, ...)`` is AND, and intermediate ``k`` opens the k-of-N
query class (fraud rules, audience segmentation) that an OR/AND chain
cannot express without exponential blowup.

Counting semantics matter: operands are a *multiset*, so a duplicated
operand contributes twice to the count — ``Threshold(2, (x, x))`` is
``x``, not ``ZERO``.  Simplification therefore never deduplicates
threshold children (see :func:`repro.expr.simplify.simplify`).

Helpers:

* :func:`at_least` (alias ``AtLeast``) — ``count >= k`` with the
  degenerate bounds folded to constants;
* :func:`exactly` (alias ``Exactly``) — ``count == k`` as
  ``at_least(k) AND NOT at_least(k + 1)``;
* :func:`majority` (alias ``Majority``) — strictly more than half;
* :func:`lower_wide_ors` — the planner rewrite turning an OR of many
  equal-cost children into ``Threshold(1, ...)`` so wide membership
  unions evaluate as a single multi-way counting pass.

Evaluation lives with the other node types: the materializing
evaluator counts via :func:`repro.compress.multiway.threshold_vectors`,
and the fused evaluator keeps a per-plan
:class:`~repro.compress.multiway.ThresholdCounter` and counts block by
block.  A threshold over
``n`` children charges ``n`` bulk operations to the cost model
(``n`` counter additions; the compare is folded into the last), keeping
:func:`repro.expr.evaluator.expression_operation_count` exact across
every physical plan.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import BitmapError
from repro.expr.nodes import Const, Expr, Leaf, Or, not_of, one, zero


@dataclass(frozen=True, slots=True)
class Threshold(Expr):
    """True where at least ``k`` of ``operands`` are true (``k >= 1``)."""

    k: int
    operands: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if not self.operands:
            raise BitmapError("threshold needs at least one operand")
        if self.k < 1:
            raise BitmapError(f"threshold k must be >= 1, got {self.k}")

    def _collect_leaves(self, out: list[Leaf]) -> None:
        for child in self.operands:
            child._collect_leaves(out)

    def children(self) -> tuple[Expr, ...]:
        return self.operands

    def value_set(self, catalog, domain):
        counts: Counter = Counter()
        for child in self.operands:
            for value in child.value_set(catalog, domain):
                counts[value] += 1
        return frozenset(v for v, c in counts.items() if c >= self.k)

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.operands)
        return f"AT-LEAST-{self.k}({inner})"

    __and__ = Expr.__and__
    __or__ = Expr.__or__
    __xor__ = Expr.__xor__
    __invert__ = Expr.__invert__


def at_least(k: int, exprs: Iterable[Expr]) -> Expr:
    """``count >= k`` with degenerate bounds folded to constants.

    ``k <= 0`` is always true, ``k > n`` never; a single operand with
    ``k == 1`` is the operand itself.
    """
    items = tuple(exprs)
    k = int(k)
    if k <= 0:
        return one()
    if k > len(items):
        return zero()
    if len(items) == 1:
        return items[0]
    return Threshold(k, items)


def exactly(k: int, exprs: Iterable[Expr]) -> Expr:
    """``count == k``: at least ``k`` but not at least ``k + 1``."""
    items = tuple(exprs)
    k = int(k)
    if k < 0 or k > len(items):
        return zero()
    if k == len(items):
        return at_least(k, items)
    if k == 0:
        return not_of(at_least(1, items))
    return at_least(k, items) & not_of(at_least(k + 1, items))


def majority(exprs: Iterable[Expr]) -> Expr:
    """Strictly more than half of the operands are true."""
    items = tuple(exprs)
    return at_least(len(items) // 2 + 1, items)


#: CamelCase aliases matching the symmetric-function naming of the
#: literature (``AtLeast(2, ...)`` reads like a node constructor).
AtLeast = at_least
Exactly = exactly
Majority = majority


def lower_wide_ors(expr: Expr, min_fanin: int = 4) -> Expr:
    """Rewrite wide ORs of equal-cost children into ``Threshold(1, ...)``.

    An ``Or`` with at least ``min_fanin`` children whose subtrees all
    carry the same operation cost (the common case: a membership
    query's constituents, or an equality scheme's slot disjunction)
    becomes a single threshold node, which every engine evaluates as
    one multi-way counting pass instead of a pairwise fold.  Children
    of unequal cost are left alone — folding those first is cheaper
    than widening the counter.  Applied bottom-up; all other nodes are
    rebuilt unchanged.
    """
    from repro.expr.evaluator import expression_operation_count
    from repro.expr.nodes import And, Not, Xor

    def rebuild(node: Expr) -> Expr:
        if isinstance(node, (Leaf, Const)):
            return node
        if isinstance(node, Not):
            return Not(rebuild(node.child))
        if isinstance(node, Threshold):
            return Threshold(
                node.k, tuple(rebuild(c) for c in node.operands)
            )
        children = tuple(rebuild(c) for c in node.children())
        if isinstance(node, Or) and len(children) >= min_fanin:
            costs = {expression_operation_count(c) for c in children}
            if len(costs) == 1:
                return Threshold(1, children)
        if isinstance(node, And):
            return And(children)
        if isinstance(node, Xor):
            return Xor(children)
        return Or(children)

    return rebuild(expr)
