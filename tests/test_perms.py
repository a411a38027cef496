"""Permutations, closures, normality, and the S4 -> S3 quotient."""

import itertools
import random

import pytest

from cgkernel.fpgroups import coset_table_from_quotient, sl2z_presentation
from cgkernel.perms import (CosetLimitExceeded, Permutation, closure,
                            format_cycles, is_normal, orbit, parse_cycles,
                            quotient_map_s4_to_s3, regular_orbit)


def p(text, n=4):
    return parse_cycles(text, n)


def test_involution_squares_to_identity():
    k = p("(1,2)(3,4)")
    assert (k * k).is_identity()


def test_klein_multiplication():
    assert p("(1,2)(3,4)") * p("(1,3)(2,4)") == p("(1,4)(2,3)")


def test_identity_neutral():
    g = p("(1,2,3)")
    assert Permutation.identity(4) * g == g == g * Permutation.identity(4)


def test_closure_klein_group():
    v4 = closure([p("(1,2)(3,4)"), p("(1,3)(2,4)")])
    assert len(v4) == 4


def test_closure_empty_is_identity():
    assert closure([], degree=4) == frozenset({Permutation.identity(4)})


def test_closure_generates_full_s4():
    got = closure([p("(1,2)"), p("(1,2,3,4)")])
    # independent oracle: enumerate all bijections directly
    everything = {Permutation(perm) for perm in itertools.permutations(range(1, 5))}
    assert got == frozenset(everything)
    assert len(got) == 24


def test_closure_degree_cap():
    with pytest.raises(ValueError):
        closure([Permutation.identity(9)])


def test_is_normal():
    s4 = closure([p("(1,2)"), p("(1,2,3,4)")])
    v4 = closure([p("(1,2)(3,4)"), p("(1,3)(2,4)")])
    assert is_normal(v4, s4)
    s3 = closure([p("(1,2)", 3), p("(1,2,3)", 3)])
    assert not is_normal(closure([p("(1,2)", 3)]), s3)
    assert is_normal(s4, s4)
    with pytest.raises(ValueError):
        is_normal(s4, v4)


def test_lagrange_on_generated_subgroups():
    rng = random.Random(0)
    s4 = closure([p("(1,2)"), p("(1,2,3,4)")])
    pool = sorted(s4, key=lambda q: q.mapping)
    for _ in range(50):
        sub = closure(rng.sample(pool, rng.randint(1, 3)))
        assert len(s4) % len(sub) == 0
        assert sub <= s4


def test_closure_is_the_generated_subgroup_of_s5():
    rng = random.Random(3)
    s5 = [Permutation(m) for m in itertools.permutations(range(1, 6))]
    for _ in range(20):
        gens = rng.sample(s5, rng.randint(1, 3))
        sub = closure(gens)
        assert set(gens) <= sub
        assert all(a * b in sub for a in sub for b in sub)
        assert all(a.inverse() in sub for a in sub)
        assert 120 % len(sub) == 0
        # every element is a product of generators: words of growing length
        words = {Permutation.identity(5)}
        while (longer := words | {w * g for w in words for g in gens}) != words:
            words = longer
        assert sub == words


def test_orbit_limit_stops_an_infinite_walk():
    # the integers under n -> n + 1: no end, so only the limit stops it
    visited = []

    def step(n):
        visited.append(n)
        return [n + 1]

    with pytest.raises(CosetLimitExceeded, match="exceeded 5 cosets"):
        orbit(0, step, limit=5)
    assert visited == [0, 1, 2, 3, 4]
    with pytest.raises(CosetLimitExceeded):
        orbit(0, step, limit=0)


def test_regular_orbit_limit_is_the_group_order():
    gens = [p("(1,2)"), p("(1,2,3,4)")]
    points, columns = regular_orbit(gens, limit=24)
    assert len(points) == 24 and [len(col) for col in columns] == [24, 24]
    assert (points, columns) == regular_orbit(gens)
    with pytest.raises(CosetLimitExceeded):
        regular_orbit(gens, limit=23)


@pytest.mark.parametrize("second", ["(1,2)(3,4)", "(1,2)"])
def test_regular_orbit_refuses_generators_of_mixed_degree(second):
    # a 3-cycle of degree 3 and a permutation of degree 4: the gather either
    # runs past the end of the degree-3 point or walks a degree-3 orbit
    gens = [p("(1,2,3)", 3), p(second)]
    with pytest.raises(ValueError, match=r"^degree mismatch among generators$"):
        regular_orbit(gens)


def test_every_walk_over_a_regular_action_refuses_mixed_degrees_alike():
    gens = [p("(1,2,3)", 3), p("(1,2)")]
    messages = set()
    for walk in (lambda: regular_orbit(gens), lambda: closure(gens),
                 lambda: coset_table_from_quotient(sl2z_presentation(), gens)):
        with pytest.raises(ValueError) as err:
            walk()
        messages.add(str(err.value))
    assert messages == {"degree mismatch among generators"}


@pytest.mark.parametrize("n", [0, 1])
def test_regular_orbit_of_degree_below_two_is_the_trivial_group(n):
    # a point of one or no entries is the case a gather of the point's
    # entries does not turn into a tuple
    ident = Permutation.identity(n)
    start = tuple(range(1, n + 1))
    assert regular_orbit([ident]) == ([start], ((0,),))
    assert regular_orbit([ident] * 3, limit=1) == ([start], ((0,), (0,), (0,)))
    with pytest.raises(CosetLimitExceeded):
        regular_orbit([ident], limit=0)
    assert closure([ident]) == closure([], degree=n) == {ident}


def test_quotient_kernel_is_klein():
    q = quotient_map_s4_to_s3()
    s4 = closure([p("(1,2)"), p("(1,2,3,4)")])
    kernel = {g for g in s4 if q(g).is_identity()}
    assert kernel == set(closure([p("(1,2)(3,4)"), p("(1,3)(2,4)")]))


def test_quotient_is_homomorphism_with_image_s3():
    q = quotient_map_s4_to_s3()
    s4 = closure([p("(1,2)"), p("(1,2,3,4)")])
    for g in s4:
        for h in s4:
            assert q(g * h) == q(g) * q(h)
    assert len({q(g) for g in s4}) == 6


def test_quotient_of_transposition_fixes_its_partition():
    q = quotient_map_s4_to_s3()
    image = q(p("(1,2)"))
    assert image(1) == 1 and not image.is_identity()


def test_cycle_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 8)
        perm = Permutation(rng.sample(range(1, n + 1), n))
        assert parse_cycles(format_cycles(perm), n) == perm


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1,2", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,1)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,5)", 4)
