"""Finite-index subgroups of free groups, on the coset table of fpgroups.

A subgroup is given as the kernel of a finite quotient of F_rank: its coset
table is the regular action of the image group on itself, numbered breadth
first from the identity.  The table's Schreier tree (positive letters before
negative) fixes the coset representatives, the Schreier basis and the
rewriting map, so everything downstream is deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence

from .fpgroups import CosetTable, Presentation, _walk, coset_table_from_quotient
from .perms import DEFAULT_MAX_COSETS, Permutation
from .words import Aut, FreeHom, Word, _inverse, _join


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
    the Schreier basis.  Requires f to map every basis element back into
    the subgroup.  That certifies f(H) = H, since H has finite index: f is
    an automorphism of F (an `Aut` is checked against its inverse when it
    is built), so [F : f(H)] = [F : H], and f(H) <= H then leaves
    [H : f(H)] = 1.  f^-1 is never read.

    No whole image word is built.  A block is the image under f of one
    letter, read from one coset over the tree labels by `_walk`.  reads[c],
    the reading of f(r_c) from coset 0, is reads[parent] joined with the
    block of c's tree letter, and ends at coset ends[c].  The basis element
    u = r_c g r_d^-1 of the off-tree edge (c, g), d = c.g, then reads as
    reads[c], the block of f(g) from ends[c], and reads[d] inverted; the
    last part leads back to coset 0, so f(u) lies in the subgroup, exactly
    when that block ends at ends[d].  A path's Schreier letters cancel in
    pairs where the path steps back along an edge, so joining reduced
    blocks with cancellation only at the junctions (the rule of
    `FreeHom.__call__`) gives the reading of the reduced word f(u)."""
    if f.rank != ct.presentation.ngens:
        raise ValueError("rank mismatch")
    tree, columns, n = ct.tree, ct.columns, ct.index
    # the image of x_g^s under f, for every letter
    images = {(g, s): im if s == 1 else im.inverse()
              for g, im in enumerate(f.fwd.images, 1) for s in (1, -1)}
    reads: list[tuple] = [()] * n
    ends = [0] * n
    for c in range(1, n):  # a parent is numbered below its child
        p, let = tree.parent[c], tree.letter[c]
        block, ends[c] = _walk(ct, ends[p], images[let])
        reads[c] = _join(reads[p], tuple(block))
    basis_images = []
    for c, row in enumerate(tree.labels):
        for g, k in enumerate(row, 1):
            if k:
                d = columns[2 * g - 2][c]
                block, end = _walk(ct, ends[c], images[g, 1])
                if end != ends[d]:
                    raise NotStabilized("automorphism does not stabilize the subgroup")
                basis_images.append(_join(_join(reads[c], tuple(block)), _inverse(reads[d])))
    nsub = tree.nsub
    return FreeHom(nsub, nsub, tuple(Word._reduced(nsub, im) for im in basis_images))
