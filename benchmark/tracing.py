"""Spans around cgkernel's public functions, recorded from outside the program.

`Tracer.install` replaces each function named in SPANS, in every cgkernel
module namespace that holds it (a method on its class), with a wrapper that
records a span: name, start, end, parent span and job id.  Calls made through
`from .intlin import cokernel` in fpgroups therefore nest as
abelianization -> cokernel -> smith_normal_form.  Spans stay in memory; run.py
writes those of the last traced round out when the run ends.  `uninstall`
puts the original functions back, and untraced rounds run without any
wrapper.

Self time is a span's duration minus the durations of its child spans; one
thread runs everything, so children never overlap.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


def _snf_counts(args, _result):
    m = args[0]
    return {"entries": m.rows * m.cols,
            "nonzeros": sum(1 for row in m.data for x in row if x)}


def _rs_counts(_args, pres):
    return {"generators": pres.ngens, "relators": len(pres.relators),
            "letters": sum(len(r) for r in pres.relators)}


# (span name, defining module, attribute path, counts taken from (args, result))
SPANS = (
    ("fpgroups.todd_coxeter", "cgkernel.fpgroups", "todd_coxeter",
     lambda a, ct: {"cosets": ct.index}),
    ("fpgroups.CosetTable.validate", "cgkernel.fpgroups", "CosetTable.validate", None),
    ("fpgroups.coset_table_from_quotient", "cgkernel.fpgroups", "coset_table_from_quotient", None),
    ("fpgroups.reidemeister_schreier", "cgkernel.fpgroups", "reidemeister_schreier", _rs_counts),
    ("fpgroups.abelianization", "cgkernel.fpgroups", "abelianization", None),
    ("intlin.smith_normal_form", "cgkernel.intlin", "smith_normal_form", _snf_counts),
    ("intlin.cokernel", "cgkernel.intlin", "cokernel", None),
    ("intlin.rank_q", "cgkernel.intlin", "rank_q", None),
    ("intlin.sl2_word", "cgkernel.intlin", "sl2_word", None),
    ("intlin.hom_matrix", "cgkernel.intlin", "hom_matrix", None),
    ("braids.normal_form", "cgkernel.braids", "normal_form",
     lambda a, nf: {"letters_in": len(a[0]), "factors_out": len(nf.factors)}),
    ("braids.braid_action", "cgkernel.braids", "braid_action", None),
    ("words.compose", "cgkernel.words", "compose", None),
    ("words.verify_automorphism", "cgkernel.words", "verify_automorphism", None),
    ("subgroups.from_quotient", "cgkernel.subgroups", "from_quotient", None),
    ("subgroups.restrict_hom", "cgkernel.subgroups", "restrict_hom", None),
)

# Registered check ids at the time the benchmark was written; each gets a
# checks.<id>.ms metric.  paper_verify fails a job whose ids differ.
CHECK_IDS = (
    "appendix.sigma_actions", "appendix.apq_actions", "appendix.apq_matrices",
    "appendix.st_words", "braid.center_trivial_action", "perm.xi_images",
    "sl2.S_index3", "sl2.sanov_index12", "sl2.gamma2_ab", "sl2.gamma2_b1",
    "stab.fourgen_in_stabH", "homology.H_coinvariants_rank1",
    "homology.H_invariants_rank1", "k4.b1_5", "k4.excessive", "gammaplus.ab",
    "gammaplus.index3_gl09", "cf.generator_table", "cf.center_square",
    "theta.kernel_gens", "ell.braid_identities", "ell.perm_trivial",
    "ell.psi_minus_identity", "ell.theta4_images",
    "thmsec.theta_pairs_surjective", "thmsec.ell_surjective",
    "prosec.cf_frobenius", "prosec.theta_pair_infinite", "j.rank5",
    "phi.hom_property", "phi.monodromy_coinvariants", "presentation.sanity",
)

# Job kinds whose self time in one span is reported on its own.
SPLITS = {
    "fpgroups.todd_coxeter": ("fill", "collapse"),
    "braids.normal_form": ("positive", "mixed", "trivial"),
}

# (name, unit, better): every per-layer metric, in output order.
PER_LAYER = (
    [("fpgroups.todd_coxeter.fill_s", "s", "lower"),
     ("fpgroups.todd_coxeter.collapse_s", "s", "lower"),
     ("fpgroups.todd_coxeter.calls", "count", "lower"),
     ("fpgroups.todd_coxeter.cosets", "count", "lower"),
     ("fpgroups.todd_coxeter.cosets_per_s", "1/s", "higher"),
     ("fpgroups.CosetTable.validate.self_s", "s", "lower"),
     ("fpgroups.coset_table_from_quotient.self_s", "s", "lower"),
     ("fpgroups.reidemeister_schreier.self_s", "s", "lower"),
     ("fpgroups.abelianization.self_s", "s", "lower"),
     ("fpgroups.reidemeister_schreier.generators", "count", "lower"),
     ("fpgroups.reidemeister_schreier.relators", "count", "lower"),
     ("fpgroups.reidemeister_schreier.letters", "count", "lower"),
     ("intlin.smith_normal_form.self_s", "s", "lower"),
     ("intlin.smith_normal_form.calls", "count", "lower"),
     ("intlin.smith_normal_form.entries", "count", "lower"),
     ("intlin.smith_normal_form.nonzeros", "count", "lower"),
     ("intlin.cokernel.self_s", "s", "lower"),
     ("intlin.rank_q.self_s", "s", "lower"),
     ("intlin.sl2_word.self_s", "s", "lower"),
     ("intlin.hom_matrix.self_s", "s", "lower"),
     ("braids.normal_form.positive_s", "s", "lower"),
     ("braids.normal_form.mixed_s", "s", "lower"),
     ("braids.normal_form.trivial_s", "s", "lower"),
     ("braids.normal_form.self_s", "s", "lower"),
     ("braids.normal_form.calls", "count", "lower"),
     ("braids.normal_form.letters_in", "count", "lower"),
     ("braids.normal_form.factors_out", "count", "lower"),
     ("braids.normal_form.letters_per_s", "1/s", "higher"),
     ("braids.braid_action.self_s", "s", "lower"),
     ("words.compose.self_s", "s", "lower"),
     ("words.compose.calls", "count", "lower"),
     ("words.verify_automorphism.self_s", "s", "lower"),
     ("subgroups.from_quotient.self_s", "s", "lower"),
     ("subgroups.restrict_hom.self_s", "s", "lower")]
    + [(f"checks.{cid}.ms", "ms", "lower") for cid in CHECK_IDS]
    + [("cli.import_ms", "ms", "lower"),
       ("bench.ref_loop_ms", "ms", "lower"),
       ("bench.trace_overhead", "ratio", "lower"),
       ("bench.traced_solve_s", "s", "lower"),
       ("bench.untraced_solve_s", "s", "lower")]
)


class Tracer:
    """Records spans while installed.  `job` is the id stamped on new spans;
    `spans` holds those of the latest installation only, which bounds the
    memory of a long traced run to one round."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, job, counts]
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        self.spans, self._stack = [], []
        modules = [m for n, m in sys.modules.items()
                   if n == "cgkernel" or n.startswith("cgkernel.")]
        for name, modname, path, count in SPANS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, count)
            homes = [owner] if outer else [m for m in modules
                                          if any(v is original for v in vars(m).values())]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        self._saved.append((home, key, value))
                        setattr(home, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            home, key, value = self._saved.pop()
            setattr(home, key, value)


def round_layers(spans: list[list], job_kind: dict[int, str]) -> Counter:
    """Per-layer figures of one traced round."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    r: Counter = Counter()
    for k, (name, start, end, _parent, job, counts) in enumerate(spans):
        own = end - start - child[k]
        r[f"{name}.self_s"] += own
        r[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            r[f"{name}.{key}"] += value
        if job_kind[job] in SPLITS.get(name, ()):
            r[f"{name}.{job_kind[job]}_s"] += own
    tc = r["fpgroups.todd_coxeter.self_s"]
    r["fpgroups.todd_coxeter.cosets_per_s"] = r["fpgroups.todd_coxeter.cosets"] / tc if tc else 0.0
    nf = r["braids.normal_form.self_s"]
    r["braids.normal_form.letters_per_s"] = r["braids.normal_form.letters_in"] / nf if nf else 0.0
    return r
