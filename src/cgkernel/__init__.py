"""cgkernel: a computational group theory kernel with a verification harness.

Free-group words and automorphisms, permutations, exact integer linear
algebra (Smith normal form, coinvariants), braid groups (braid words are
free-group words) with a Garside normal-form word-problem oracle, Todd-Coxeter
coset enumeration with Reidemeister-Schreier rewriting, one coset table that
also serves finite-index subgroups of free groups (Schreier bases, membership,
rewriting, restricted automorphisms), and a registry of named checks tying it
all together.
"""

from .words import (Aut, FreeHom, SemidirectElement, Word, compose,
                    format_word, parse_word, transvection, verify_automorphism)
from .perms import (Permutation, closure, format_cycles, is_normal,
                    parse_cycles, quotient_map_s4_to_s3)
from .intlin import (AbelianStructure, IntMatrix, coinvariants, cokernel,
                     eval_st, format_matrix, format_st, hom_matrix,
                     invariants_rank, parse_matrix, parse_st, rank_q,
                     sl2_word, smith_normal_form)
from .braids import (BraidWord, GarsideNormalForm, NonPureBraid, braid_action,
                     braid_equal, braid_perm, braid_to_word, cardano_ferrari,
                     delete_strand, delta_word, ell_word, format_braid,
                     generator_action, handle_reduce, handle_trivial,
                     normal_form, parse_braid, pure_gen)
from .fpgroups import (CosetLimitExceeded, CosetTable, NotMember, Presentation,
                       RelatorViolated, abelianization,
                       braid_mod_center_presentation, braid_presentation,
                       coset_table_from_quotient, format_presentation,
                       parse_presentation, pure_braid3_mod_center_presentation,
                       pure_braid3_presentation, reidemeister_schreier,
                       sl2z_presentation, subgroup_abelianization, todd_coxeter)
from .subgroups import NotStabilized, expand, from_quotient, restrict_hom
from .checks import (CHECK_IDS, CheckResult, Config, UnknownCheck, run_all,
                     run_check)

__version__ = "0.1.0"
