"""Finite-index subgroups of free groups, on the coset table of fpgroups.

A subgroup is given as the kernel of a finite quotient of F_rank: its coset
table is the regular action of the image group on itself, numbered breadth
first from the identity.  The table's Schreier tree (positive letters before
negative) fixes the coset representatives, the Schreier basis and the
rewriting map, so everything downstream is deterministic.
"""

from __future__ import annotations

from typing import Sequence

from .fpgroups import (CosetTable, NotMember, Presentation,
                       coset_table_from_quotient, rewrite_in_subgroup)
from .perms import DEFAULT_MAX_COSETS, Permutation
from .words import Aut, FreeHom, Word


class NotStabilized(ValueError):
    """Automorphism does not map the subgroup onto itself."""


def from_quotient(rank: int, images: Sequence[Permutation],
                  max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Coset table of the kernel of F_rank -> <images>; index = image order,
    at most ``max_cosets`` (else CosetLimitExceeded)."""
    return coset_table_from_quotient(Presentation(rank, ()), images, max_cosets)


def expand(ct: CosetTable, w: Word) -> Word:
    """Substitute basis words back into a word over the basis letters."""
    return ct.basis_hom(w)


def restrict_hom(ct: CosetTable, f: Aut) -> FreeHom:
    """Restriction of an ambient automorphism to the subgroup, expressed on
    the Schreier basis.  Requires f and f^-1 to map every basis element back
    into the subgroup, which certifies f(H) = H."""
    if f.rank != ct.presentation.ngens:
        raise ValueError("rank mismatch")
    try:
        images = tuple(rewrite_in_subgroup(ct, f.fwd(u)) for u in ct.basis)
    except NotMember:
        raise NotStabilized("automorphism does not stabilize the subgroup") from None
    if any(ct.trace(0, f.inv(u)) != 0 for u in ct.basis):
        raise NotStabilized("automorphism does not stabilize the subgroup")
    return FreeHom(len(ct.basis), len(ct.basis), images)
