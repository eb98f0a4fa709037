"""REP2xx — float-semantics rules.

Floating-point addition is not associative: the *order* of a reduction is
part of its value. The batched plant path is bit-identical to its
per-device definition precisely because every reduction order was
preserved; these rules ban
the constructs that make reduction order depend on hash seeding, and the
float comparisons that silently depend on representation.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..context import iter_scoped
from ..findings import Finding
from .base import Rule

if TYPE_CHECKING:  # pragma: no cover
    from ..context import ModuleContext

_REDUCTIONS = frozenset({
    "math.fsum",
    "numpy.sum", "numpy.nansum", "numpy.prod", "numpy.cumsum",
    "numpy.mean", "numpy.nanmean", "numpy.std", "numpy.var",
})


class FloatEqualityRule(Rule):
    """REP201: no ``==``/``!=`` against non-zero float literals.

    ``x == 0.9`` compares bit patterns, not values: whether it holds
    depends on how ``x`` was computed, which is exactly the kind of
    representation detail the batched and per-device mirrors are allowed to vary
    while keeping *digest-relevant* outputs identical. Compare against
    exact integers, use ``math.isclose``, or restructure around a
    threshold. Exact-zero sentinels (``sigma == 0.0`` meaning "feature
    disabled") are a deliberate idiom and are allowed.
    """

    id = "REP201"
    title = "equality comparison against a float literal"
    hint = "use math.isclose / a threshold; exact-zero sentinels are exempt"

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in (node.left, *node.comparators):
                if (
                    isinstance(operand, ast.Constant)
                    and isinstance(operand.value, float)
                    and operand.value != 0.0
                ):
                    yield self.finding(
                        ctx, node, f"float-literal equality ({operand.value!r})"
                    )
                    break


class UnorderedReductionRule(Rule):
    """REP202: no float reductions over unordered containers.

    ``sum(a_set)`` (and ``np.sum``/``math.fsum``/``np.mean`` etc. over one)
    accumulates in hash order, so the rounding error — and therefore the
    digest — varies with insertion history and interpreter hash seeding.
    Reduce over ``sorted(the_set)`` instead.
    """

    id = "REP202"
    title = "reduction over an unordered container"
    hint = "reduce over sorted(the_set) to pin the accumulation order"

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        for scope, node in iter_scoped(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            is_reduction = (
                isinstance(func, ast.Name) and func.id == "sum"
            ) or ctx.resolve(func) in _REDUCTIONS
            if is_reduction and ctx.is_unordered(node.args[0], scope):
                yield self.finding(ctx, node, "reduction over a set")


class UnorderedAccumulationRule(Rule):
    """REP203: no in-place accumulation inside loops over sets.

    A ``total += ...`` (or ``-=``, ``*=``) carried through a ``for`` loop
    over a set accumulates in hash order — same failure as REP202 but
    spelled as a loop. The loop itself is already flagged by REP105; this
    rule pinpoints the accumulating statement so the fix (sort the
    iterable, or restructure into an order-insensitive form) lands on the
    right line.
    """

    id = "REP203"
    title = "in-place accumulation in a loop over a set"
    hint = "iterate sorted(the_set), or collect then reduce in a fixed order"

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        for scope, node in iter_scoped(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            if not ctx.is_unordered(node.iter, scope):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.AugAssign) and isinstance(
                    inner.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    yield self.finding(
                        ctx, inner, "accumulation order depends on set hashing"
                    )
