"""Command-line front end.

Exit codes are a stable contract: 0 success / all checks passed, 1 at least
one check failed, 2 usage or parse error, 3 coset limit exceeded.  A reader
that closes the output pipe early ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys

from .braids import (BraidWord, _perm_letters, braid_equal, braid_perm, format_braid, normal_form,
                     parse_braid)
from .checks import CHECK_IDS, Config, run_all
from .fpgroups import (CosetLimitExceeded, parse_presentation, rewrite_in_subgroup,
                       subgroup_abelianization, todd_coxeter)
from .intlin import format_matrix, format_st, parse_matrix, sl2_word, smith_normal_form
from .perms import DEFAULT_MAX_COSETS, format_cycles, parse_cycles
from .subgroups import from_quotient
from .words import format_word, parse_word

ENV_MAX_COSETS = "CGKERNEL_MAX_COSETS"


def _max_cosets(flag: int | None) -> int:
    """The coset limit: --max-cosets, else $CGKERNEL_MAX_COSETS, else
    DEFAULT_MAX_COSETS (100000)."""
    if flag is not None:
        limit = flag
    else:
        raw = os.environ.get(ENV_MAX_COSETS)
        if raw is None:
            return DEFAULT_MAX_COSETS
        try:
            limit = int(raw)
        except ValueError:
            raise ValueError(f"bad {ENV_MAX_COSETS} value: {raw!r}") from None
    if limit < 1:
        raise ValueError(f"coset limit must be at least 1, got {limit}")
    return limit


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cgkernel",
                                  description="computational group theory kernel")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run registered verification checks")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("--check", action="append", default=[],
                   help="check id or glob (repeatable)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-cosets", type=int, default=None)
    p.add_argument("--list", action="store_true", help="list check ids and exit")

    p = sub.add_parser("braid", help="braid word utilities")
    p.set_defaults(run=_cmd_braid)
    bsub = p.add_subparsers(dest="braid_command", required=True)
    for name, nargs_words in (("nf", 1), ("eq", 2), ("perm", 1)):
        q = bsub.add_parser(name)
        q.add_argument("-n", type=int, required=True, help="strand count")
        q.add_argument("words", nargs=nargs_words)

    p = sub.add_parser("tc", help="Todd-Coxeter coset enumeration")
    p.set_defaults(run=_cmd_tc)
    p.add_argument("presentation", help="presentation file (gens:/rel: format)")
    p.add_argument("subgroup", help="comma-separated subgroup generator words")
    p.add_argument("--max-cosets", type=int, default=None)
    p.add_argument("--ab", action="store_true",
                   help="also print the subgroup abelianization (Reidemeister-Schreier)")

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.set_defaults(run=_cmd_snf)
    p.add_argument("matrix", help="literal like [[2,0],[0,3]]")

    p = sub.add_parser("sl2word", help="express a det-1 matrix as an S/T word")
    p.set_defaults(run=_cmd_sl2word)
    p.add_argument("matrix")

    p = sub.add_parser("subgroup", help="finite-index subgroups of free groups")
    p.set_defaults(run=_cmd_subgroup)
    ssub = p.add_subparsers(dest="subgroup_command", required=True)
    for name in ("basis", "rewrite"):
        q = ssub.add_parser(name)
        q.add_argument("-r", "--rank", type=int, required=True)
        q.add_argument("-d", "--degree", type=int, required=True,
                       help="degree of the permutation images")
        q.add_argument("--images", required=True,
                       help="semicolon-separated cycle notation, one per generator")
        q.add_argument("--max-cosets", type=int, default=None)
        if name == "rewrite":
            q.add_argument("word")
    return top


def _cmd_verify(args) -> int:
    if args.list:
        for cid in CHECK_IDS:
            print(cid)
        return 0
    if not args.all and not args.check:
        print("verify: pass --all or --check ID", file=sys.stderr)
        return 2
    patterns = tuple(args.check) if args.check else ("*",)
    for pat in patterns:
        if not any(fnmatch.fnmatch(cid, pat) for cid in CHECK_IDS):
            print(f"unknown check id or pattern: {pat}", file=sys.stderr)
            return 2
    cfg = Config(max_cosets=_max_cosets(args.max_cosets),
                 check_filter=patterns,
                 seed=args.seed)
    results = run_all(cfg)
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        width = max(len(r.id) for r in results) if results else 0
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.id:<{width}}  {status}  {r.elapsed * 1000:8.1f} ms  {r.paper_anchor}")
            if args.check or not r.passed:
                print(f"{'':<{width}}  expected: {r.expected}")
                print(f"{'':<{width}}  actual:   {r.actual}")
        npass = sum(r.passed for r in results)
        print(f"{npass}/{len(results)} checks passed")
    return 0 if results and all(r.passed for r in results) else 1


def _cmd_braid(args) -> int:
    words = [parse_braid(w, args.n) for w in args.words]
    if args.braid_command == "nf":
        nf = normal_form(words[0])
        parts = [f"Delta^{nf.delta_power}", "·"]
        # the factors are the table's shared Permutations: each distinct
        # factor object is spelled once
        distinct = {id(f): f for f in nf.factors}
        spelled = {k: format_braid(BraidWord(f.n, _perm_letters(f))) for k, f in distinct.items()}
        factor_words = [spelled[id(f)] for f in nf.factors]
        print(" ".join(parts + [" · ".join(factor_words)]).rstrip())
    elif args.braid_command == "eq":
        print("equal" if braid_equal(words[0], words[1]) else "not equal")
    else:
        print(format_cycles(braid_perm(words[0])))
    return 0


def _cmd_tc(args) -> int:
    with open(args.presentation, encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
    subgens = [pres.word(chunk.strip()) for chunk in args.subgroup.split(",") if chunk.strip()]
    ct = todd_coxeter(pres, subgens, _max_cosets(args.max_cosets))
    print(f"index: {ct.index}")
    if args.ab:
        print(f"abelianization: {subgroup_abelianization(ct)}")
    return 0


def _cmd_snf(args) -> int:
    d, u, v = smith_normal_form(parse_matrix(args.matrix))
    # U and V of a valid matrix can pass CPython's limit on the digits of an
    # int-to-str conversion (absent from versions that have none).  Lift it
    # for the output alone, formatted in full before anything is printed; the
    # input parse above keeps it.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = "\n".join(f"{name} = {format_matrix(m)}" for name, m in zip("DUV", (d, u, v)))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text)
    return 0


def _cmd_sl2word(args) -> int:
    print(format_st(sl2_word(parse_matrix(args.matrix))))
    return 0


def _cmd_subgroup(args) -> int:
    images = [parse_cycles(chunk.strip(), args.degree)
              for chunk in args.images.split(";")]
    ct = from_quotient(args.rank, images, _max_cosets(args.max_cosets))
    if args.subgroup_command == "basis":
        print(f"index: {ct.index}")
        for w in ct.basis:
            print(format_word(w))
    else:
        rewritten = rewrite_in_subgroup(ct, parse_word(args.word, args.rank))
        print(format_word(rewritten, tuple(f"g{i}" for i in range(1, rewritten.rank + 1))))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.run(args)
        if sys.stdout is not None:  # None when the process starts with it closed
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except CosetLimitExceeded as exc:
        print(f"coset limit exceeded: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader left, as `| head` does: stop quietly, and send what is
        # still buffered to os.devnull so the final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
