"""The enumerated presentation of W_⟨d⟩(ℤ/m), kept as a test oracle.

``enumerated_level`` is how ``mackeywitt.norm.WittLevel`` used to build a
norm level over ℤ/m: walk every Witt vector in lexicographic order of its
components, adjoin the first one outside the current subgroup as a new
generator, find its order relative to that subgroup by repeated Witt
addition, and extend an element table of canonical coordinates.  It visits
all m^{#⟨d⟩} vectors, so it is only run at the test sizes; the Verschiebung
presentation must agree with it on the generators, the relation rows and
the coordinates of every element.  ``all_vectors`` is the enumeration
itself, which the Witt arithmetic tests also walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from mackeywitt.wittcore import BaseRing, TruncationSet, WittVector, require_enumerable, witt_add, zero


def all_vectors(truncation: TruncationSet, ring: BaseRing):
    """Iterate every Witt vector (finite base rings, at most ENUMERATION_BUDGET)."""
    if ring.is_torsion_free:
        raise ValueError("infinite base ring")
    order = truncation.sorted()
    require_enumerable(ring.modulus, len(order))
    return (
        WittVector(truncation, ring, dict(zip(order, comps)))
        for comps in product(ring.elements(), repeat=len(order))
    )


@dataclass
class EnumeratedLevel:
    gens: list[WittVector]
    relations: tuple[tuple[int, ...], ...]
    table: dict[tuple[int, ...], tuple[int, ...]]  # component tuple -> coordinates


def enumerated_level(ring: BaseRing, d: int) -> EnumeratedLevel:
    truncation = TruncationSet.of(d)
    z = zero(truncation, ring)
    table = {z.component_tuple(): ()}
    elements = {z.component_tuple(): z}
    gens: list[WittVector] = []
    relations: list[tuple[int, ...]] = []
    for cand in all_vectors(truncation, ring):
        if cand.component_tuple() in table:
            continue
        # adjoin cand as a new generator; find its order relative to the
        # current subgroup, then extend the element table
        multiples = []
        acc = cand
        while acc.component_tuple() not in table:
            multiples.append(acc)
            acc = witt_add(acc, cand)
        order = len(multiples) + 1
        base = table[acc.component_tuple()]
        k = len(gens)
        relations = [r + (0,) for r in relations]
        relations.append(tuple(-c for c in base) + (0,) * (k - len(base)) + (order,))
        new_table = {}
        for key, coords in table.items():
            step = elements[key]
            padded = coords + (0,) * (k - len(coords))
            new_table[key] = padded + (0,)
            for j in range(1, order):
                step = witt_add(step, cand)
                new_table[step.component_tuple()] = padded + (j,)
                elements[step.component_tuple()] = step
        gens.append(cand)
        table = new_table
    width = len(gens)
    return EnumeratedLevel(
        gens,
        tuple(r + (0,) * (width - len(r)) for r in relations),
        {key: c + (0,) * (width - len(c)) for key, c in table.items()},
    )
