"""Orbit classification: exact integer geometry, checked against brute force."""

import math

import pytest
from hypothesis import given, strategies as st

from instab import (
    LatticeVector,
    OrbitRep,
    PointClass,
    canonical_rep,
    classify,
    enumerate_classes,
    wedge,
)

P = LatticeVector(3, 1)

coords = st.integers(min_value=-30, max_value=30)


def vec(x, y):
    return LatticeVector(x, y)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_values():
    assert wedge(vec(3, 1), vec(-1, 2)) == 7
    assert wedge(vec(-1, 2), vec(3, 1)) == -7
    assert wedge(vec(3, 1), vec(6, 2)) == 0


@given(coords, coords, coords, coords)
def test_wedge_antisymmetry(a, b, c, d):
    assert wedge(vec(a, b), vec(c, d)) == -wedge(vec(c, d), vec(a, b))


@given(coords, coords, st.integers(min_value=-5, max_value=5))
def test_wedge_vanishes_on_multiples(a, b, k):
    assert wedge(vec(a, b), vec(k * a, k * b)) == 0


# ---------------------------------------------------------------------------
# canonical representative
# ---------------------------------------------------------------------------

def brute_rep(q, p):
    """Independent oracle: scan a wide shift window for the minimizer."""
    best = None
    for n in range(-200, 201):
        cand = q + p.scaled(n)
        key = (cand.norm_sq, -n)  # smallest norm; ties go to the larger n
        if best is None or key < best[0]:
            best = (key, OrbitRep(cand, n))
    return best[1]


def test_canonical_rep_example():
    got = canonical_rep(vec(2, 3), P)
    assert got.rep == vec(-1, 2)
    assert got.shift == -1


def test_canonical_rep_tie_takes_larger_shift():
    # ||(-1,1)|| == ||(1,1)|| along p=(2,0): the tie resolves forward.
    got = canonical_rep(vec(-1, 1), vec(2, 0))
    assert got.rep == vec(1, 1)
    assert got.shift == 1


def test_parallel_q_reduces_to_origin():
    got = canonical_rep(vec(6, 2), P)
    assert got.rep == vec(0, 0)
    assert got.shift == -2


@given(coords, coords, coords, coords)
def test_canonical_rep_matches_brute_force(px, py, qx, qy):
    p = vec(px, py)
    if p.is_zero():
        return
    q = vec(qx, qy)
    expect = brute_rep(q, p)
    got = canonical_rep(q, p)
    assert got.rep == expect.rep
    assert got.shift == expect.shift


@given(coords, coords)
def test_canonical_rep_idempotent(qx, qy):
    first = canonical_rep(vec(qx, qy), P)
    again = canonical_rep(first.rep, P)
    assert again.rep == first.rep
    assert again.shift == 0


@given(coords, coords, st.integers(min_value=-8, max_value=8))
def test_classification_is_shift_invariant(qx, qy, n):
    q = vec(qx, qy)
    assert classify(q + P.scaled(n), P) == classify(q, P)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, expected", [
    ((-1, 2), PointClass.TYPE_I0),
    ((0, -2), PointClass.TYPE_I_PLUS),
    ((2, -2), PointClass.TYPE_I_MINUS),
    ((-1, 1), PointClass.TYPE_II),
    ((-2, 3), PointClass.TYPE_0),
    ((6, 2), PointClass.PARALLEL),
])
def test_reference_classifications(q, expected):
    assert classify(vec(*q), P) == expected


def brute_classify(q, p):
    """Independent oracle straight from the definitions."""
    if wedge(p, q) == 0:
        return PointClass.PARALLEL
    pp = p.norm_sq
    # ||q + n p||^2 is a positive-definite quadratic in n, so any orbit point
    # inside the disk lies within a bounded shift window of the vertex.
    span = 2 * (abs(q.x) + abs(q.y)) + 2 * (abs(p.x) + abs(p.y)) + 4
    inside = [n for n in range(-span, span + 1)
              if (q + p.scaled(n)).norm_sq < pp]
    if not inside:
        return PointClass.TYPE_0
    if len(inside) >= 2:
        return PointClass.TYPE_II
    qhat = q + p.scaled(inside[0])
    on_plus = (qhat + p).norm_sq == pp
    on_minus = (qhat - p).norm_sq == pp
    if on_plus:
        return PointClass.TYPE_I_PLUS
    if on_minus:
        return PointClass.TYPE_I_MINUS
    return PointClass.TYPE_I0


@given(coords, coords, coords, coords)
def test_classify_matches_brute_force(px, py, qx, qy):
    p = vec(px, py)
    if p.is_zero():
        return
    assert classify(vec(qx, qy), p) == brute_classify(vec(qx, qy), p)


def test_at_most_one_boundary_neighbour():
    # q with both ||q+p|| and ||q-p|| on the circle would contradict having
    # exactly one interior point; the classifier never reports it, and brute
    # force confirms the configuration does not occur on a dense sample.
    for qx in range(-8, 9):
        for qy in range(-8, 9):
            q = vec(qx, qy)
            if wedge(P, q) == 0:
                continue
            qhat = canonical_rep(q, P).rep
            if qhat.norm_sq < P.norm_sq:
                both = ((qhat + P).norm_sq == P.norm_sq
                        and (qhat - P).norm_sq == P.norm_sq)
                assert not both


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_reps_are_canonical_and_sorted():
    out = enumerate_classes(P, 4.0)
    reps = [r.rep for r, _ in out]
    keys = [(v.norm_sq, v.x, v.y) for v in reps]
    assert keys == sorted(keys)
    assert len(set(reps)) == len(reps)
    for rep, cls in out:
        assert canonical_rep(rep.rep, P).rep == rep.rep
        assert classify(rep.rep, P) == cls


def test_enumerate_matches_pointwise_classification():
    radius = 5.0
    out = {r.rep: cls for r, cls in enumerate_classes(P, radius)}
    assert out, "enumeration over a radius-5 disk cannot be empty"
    # every lattice point in the disk must appear through its representative
    bound = math.ceil(radius)
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            q = vec(x, y)
            if x * x + y * y > radius * radius:
                continue
            rep = canonical_rep(q, P).rep
            if rep in out:
                assert out[rep] == classify(q, P)


def test_enumerate_radius_covers_all_classes():
    classes = {cls for _, cls in enumerate_classes(P, 4.0)}
    assert classes == set(PointClass)


def test_enumerate_rejects_negative_radius():
    with pytest.raises(ValueError):
        enumerate_classes(P, -1.0)


def test_enumerate_radius_zero_is_the_parallel_orbit():
    out = enumerate_classes(P, 0.0)
    assert out == [(OrbitRep(rep=vec(0, 0), shift=0), PointClass.PARALLEL)]


@pytest.mark.parametrize("call", [
    lambda: canonical_rep(vec(1, 2), vec(0, 0)),
    lambda: classify(vec(1, 2), vec(0, 0)),
    lambda: enumerate_classes(vec(0, 0), 3.0),
], ids=["canonical_rep", "classify", "enumerate_classes"])
def test_zero_p_is_refused(call):
    with pytest.raises(ValueError, match="p must be nonzero"):
        call()


def test_lattice_vector_requires_integers():
    with pytest.raises(TypeError):
        LatticeVector(1.5, 2)
