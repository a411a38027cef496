"""The frozen reference loop that `solve_norm` divides by.

One pass is pure-Python bytecode on small integers: it calls nothing in
cgkernel, and every value it makes lies in 0..256, which CPython keeps as
preallocated objects, so it allocates nothing and neither the program's code
nor the state of its heap changes its speed.  Its time tracks only how fast
this host runs the interpreter at the moment it is sampled, which is why the
benchmark runs it between jobs.

Do not edit this file.  `solve_norm` compares commits only while the loop is
the same on both; a changed loop rescales every `solve_norm` and
`bench.ref_loop_ms` figure, and the reference figures in README.md no longer
apply.
"""

from time import perf_counter

OUTER = 160


def ref_pass() -> float:
    """Run the loop once and return its wall time in seconds."""
    start = perf_counter()
    x = 0
    for _ in range(OUTER):
        for j in range(256):
            x = ((x ^ j) + 1) & 255
    elapsed = perf_counter() - start
    if x > 255:  # never true; keeps the result observably used
        raise AssertionError(x)
    return elapsed
