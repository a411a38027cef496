"""Negative controls for the benchmark's answer checks.

    python3 benchmark/controls.py

For one or two cheap jobs of each workload, runs the job, confirms that its
check accepts the real answer, then corrupts one field of a copy (an index, a
torsion list, a normal-form factor, a matrix entry, ...) and confirms that the
check rejects it.  Also confirms that BENCHMARK.json lists exactly the metrics
that run.py prints.  Prints one line per control and exits 0 only when every
control bites.
"""

from __future__ import annotations

import json
import sys

import run

if run.import_program() is None:
    sys.exit(f"controls: no cgkernel source at {run.SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402


def result_json(edit):
    """Corruption of a `verify --json` answer: edit(list of results)."""
    def corrupt(ans):
        results = json.loads(ans["stdout"])
        edit(results)
        return {**ans, "stdout": json.dumps(results)}
    return corrupt


def by_id(results, cid):
    return next(r for r in results if r["id"] == cid)


def set_key(key, value):
    def corrupt(ans):
        return {**ans, key: value}
    return corrupt


def swap_first_factors(ans):
    f = list(ans["factors"])
    f[0], f[1] = f[1], f[0]
    return {**ans, "factors": f}


def bump_factor(ans):
    f = list(ans["factors"])
    f[0] = tuple(reversed(f[0][:2])) + f[0][2:]
    return {**ans, "factors": f}


def table_swap(ans):
    table = [list(row) for row in ans["table"]]
    table[0][0], table[1][0] = table[1][0], table[0][0]
    return {**ans, "table": tuple(tuple(row) for row in table)}


def bump_matrix(ans):
    (a, b), row = ans["matrix"]
    return {**ans, "matrix": ((a + 1, b), row)}


def wrong_restriction(ans):
    restricted = list(ans["restricted"])
    restricted[0], restricted[1] = restricted[1], restricted[0]
    return {**ans, "restricted": restricted}


# workload -> (job label, [(what is corrupted, corruption)])
CONTROLS = {
    "paper_verify": [("verify", [
        ("exit code 1", set_key("code", 1)),
        ("Sanov index 11", result_json(lambda rs: by_id(rs, "sl2.sanov_index12")["actual"]
                                       .update(index=11))),
        ("Gamma(2) torsion []", result_json(lambda rs: by_id(rs, "sl2.gamma2_ab")["actual"]
                                            ["abelianization"].update(torsion=[]))),
        ("K_4 b1 4", result_json(lambda rs: by_id(rs, "k4.b1_5")["actual"]
                                 ["abelianization"].update(free_rank=4))),
        ("one check not passed", result_json(lambda rs: rs[3].update(passed=False))),
        ("elapsed_ms key dropped", result_json(lambda rs: rs[0].pop("elapsed_ms"))),
        ("two ids swapped", result_json(lambda rs: rs.insert(0, rs.pop(1)))),
    ])],
    "coset_enum": [("F4", [
        ("index 1153", set_key("index", 1153)),
        ("two table entries swapped", table_swap),
    ])],
    "subgroup_homology": [
        ("Gamma3", [("torsion (2,)", set_key("ab", (3, (2,)))),
                    ("index 12", set_key("index", 12))]),
        ("nielsen3", [("invariant rank 2", set_key("inv_rank", 2)),
                      ("restrictions swapped", wrong_restriction)]),
    ],
    "braid_words": [
        ("B4-positive-100", [("first two factors swapped", swap_first_factors),
                             ("a factor changed", bump_factor),
                             ("Delta power set to 1", set_key("delta", 1))]),
        ("B5-mixed-100-rewrite", [("a factor changed", bump_factor)]),
        ("B4-trivial-100", [("Delta^2 for the trivial braid", set_key("delta", 2))]),
        ("B4-action-0", [("a matrix entry +1", bump_matrix)]),
    ],
}


def main() -> int:
    bad = 0
    for name, jobs in CONTROLS.items():
        wl = workloads.WORKLOADS[name](run.ROOT, 0, in_process=False)
        wl.setup()
        all_jobs = {job.label: job for job in wl.jobs()}
        for label, corruptions in jobs:
            job = all_jobs.get(label) or next(j for k, j in all_jobs.items() if k.startswith(label))
            answers = {job.label: job.run()}
            twin = label.replace("-rewrite", "")
            if twin != label:
                answers[twin] = all_jobs[twin].run()
            reason = job.check(answers[job.label], answers)
            print(f"{name:18} {job.label:22} real answer: {'REJECTED ' + reason if reason else 'accepted'}")
            bad += reason is not None
            for what, corrupt in corruptions:
                forged = corrupt(answers[job.label])  # corruptions build new objects
                reason = job.check(forged, {**answers, job.label: forged})
                print(f"{name:18} {job.label:22} {what}: "
                      f"{'rejected: ' + reason if reason else 'ACCEPTED'}")
                bad += reason is None

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    named = {m["name"] for m in spec["per_layer"]}
    printed = {name for name, _, _ in tracing.PER_LAYER}
    same = named == printed and [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    print(f"BENCHMARK.json metric names match run.py: {same}")
    bad += not same
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
