"""Finite-index subgroups of free groups, on the coset table of fpgroups.

A subgroup is given as the kernel of a finite quotient of F_rank: its coset
table is the regular action of the image group on itself, numbered breadth
first from the identity.  The table's Schreier tree (positive letters before
negative) fixes the coset representatives, the Schreier basis and the
rewriting map, so everything downstream is deterministic.
"""

from __future__ import annotations

from typing import Sequence

from .fpgroups import (CosetTable, Presentation, _cols, _walk,
                       coset_table_from_quotient)
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
    the Schreier basis.  Requires f and f^-1 to map every basis element back
    into the subgroup, which certifies f(H) = H.

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
    `FreeHom.__call__`) gives the reading of the reduced word f(u).  f^-1
    is checked on cosets alone: back[c] = 0 . f^-1(r_c) comes from
    back[parent] through one permutation of the cosets per image of f^-1,
    and f^-1(u) fixes coset 0 exactly when f^-1(g) takes back[c] to
    back[d]."""
    if f.rank != ct.presentation.ngens:
        raise ValueError("rank mismatch")
    tree, columns, n = ct.tree, ct.columns, ct.index
    # images[g, s]: the image of x_g^s under f; perms[g, s][c] = c . f^-1(x_g^s),
    # one pass per image over its columns.  x_g^-1 is needed only on a tree
    # edge, so its entries are made only for the tree's letters.
    images, perms = {}, {}
    tree_letters = set(tree.letter[1:])
    for g, (im, im_inv) in enumerate(zip(f.fwd.images, f.inv.images), 1):
        perm = list(range(n))
        for x in _cols(im_inv):
            col = columns[x]
            perm = [col[c] for c in perm]
        images[g, 1], perms[g, 1] = im, perm
        if (g, -1) in tree_letters:
            inv = [0] * n
            for c, d in enumerate(perm):
                inv[d] = c
            images[g, -1], perms[g, -1] = im.inverse(), inv
    reads: list[tuple] = [()] * n
    ends, back = [0] * n, [0] * n
    for c in range(1, n):  # a parent is numbered below its child
        p, let = tree.parent[c], tree.letter[c]
        block, ends[c] = _walk(ct, ends[p], images[let])
        reads[c] = _join(reads[p], tuple(block))
        back[c] = perms[let][back[p]]
    basis_images = []
    for c, row in enumerate(tree.labels):
        for g, k in enumerate(row, 1):
            if k:
                d = columns[2 * g - 2][c]
                block, end = _walk(ct, ends[c], images[g, 1])
                if end != ends[d] or perms[g, 1][back[c]] != back[d]:
                    raise NotStabilized("automorphism does not stabilize the subgroup")
                basis_images.append(_join(_join(reads[c], tuple(block)), _inverse(reads[d])))
    nsub = tree.nsub
    return FreeHom(nsub, nsub, tuple(Word._reduced(nsub, im) for im in basis_images))
