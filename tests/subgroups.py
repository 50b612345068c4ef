"""Equality of relation subgroups, for tests.

``fgab.row_hnf`` is not a canonical form (two bases of one lattice can reduce
to different rows), so tests compare subgroups by membership instead: each
side's relations are zero in the other, as the ``hh0`` suite asks.
"""

from mackeywitt.fgab import FgAbGroup


def same_subgroup(a: FgAbGroup, b: FgAbGroup) -> bool:
    """Whether a and b present one quotient: the same generators and one relation subgroup."""
    return a.num_generators == b.num_generators and all(
        x.same_class(row, ()) for x, y in ((a, b), (b, a)) for row in y.rels
    )


def same_levels(m, n) -> bool:
    """``same_subgroup`` at every level of two Mackey functors over one group."""
    return all(same_subgroup(m.level[d], n.level[d]) for d in m.ctx.divisors)
