"""Curated recurrence table shared by the classifier and acceptance tests.

Each entry: (name, LinRec, expected verdict, expected step tag).  The
degenerate member additionally pins its per-subsequence verdicts.
"""
from fractions import Fraction as F

from cfperiod.qfield import quad, sqrt_int
from cfperiod.recurrence import LinRec

R2 = sqrt_int(2)
R3 = sqrt_int(3)
R5 = sqrt_int(5)


def members():
    """Fresh LinRec instances per call so tests cannot share term caches."""
    return [
        ("fibonacci", LinRec([1, 1], [quad(0, 0, 5), quad(1, 0, 5)], 5), "ClassA", None),
        ("n+sqrt5", LinRec([2, -1], [R5, 1 + R5], 5), "ClassB_b", None),
        ("(1+sqrt2)^n", LinRec([2, 1], [quad(1, 0, 2), 1 + R2], 2), "ClassC_c", None),
        ("(3+sqrt2)^n", LinRec([6, -7], [quad(1, 0, 2), 3 + R2], 2), "ProvenUnbounded", "C.1"),
        ("sqrt5*2^n", LinRec([2], [R5], 5), "ProvenUnbounded", "B.1"),
        ("n^2*sqrt5", LinRec([3, -3, 1], [quad(0, 0, 5), R5, 4 * R5], 5), "ProvenUnbounded", "B.4"),
        (
            "sqrt2^n+(1+sqrt2)^n",
            LinRec([2, 3, -4, -2], [quad(2, 0, 2), 1 + 2 * R2, 5 + 2 * R2, 7 + 7 * R2], 2),
            "DegenerateInput",
            None,
        ),
        ("(-1)^n*(2+sqrt2)", LinRec([-1], [2 + R2], 2), "ClassB_b", None),
        (
            "(5/2)^n+(-1)^n*sqrt2",
            LinRec([F(3, 2), F(5, 2)], [1 + R2, F(5, 2) - R2], 2),
            "ProvenUnbounded",
            "B.3",
        ),
        (
            "sqrt2*osc_n",  # osc_n rational with charpoly x^2 - x/2 + 1, |roots| = 1
            LinRec([F(1, 2), -1], [R2, quad(0, 0, 2)], 2),
            "ProvenUnbounded",
            "B.2",
        ),
        # a conjugate pair with every root inside the circle
        ("((1+sqrt2)/8)^n", LinRec([(1 + R2) / 8], [quad(1, 0, 2)], 2), "ProvenUnbounded", "C.3"),
        # Pisot-type but not a unit: norm 2
        ("(2+sqrt2)^n", LinRec([2 + R2], [quad(1, 0, 2)], 2), "ProvenUnbounded", "C.4"),
        (
            "(1+sqrt2)^n+(3/2)^n",  # P_S factor x - 3/2 outside, not an algebraic integer
            LinRec([F(5, 2) + R2, -F(3, 2) * (1 + R2)], [quad(2, 0, 2), F(5, 2) + R2], 2),
            "ProvenUnbounded",
            "C.5",
        ),
        (
            "(2+sqrt3)^n+(2/3)^n",  # P_S factor x - 2/3 inside, reciprocal not an integer
            LinRec([F(8, 3) + R3, -F(2, 3) * (2 + R3)], [quad(2, 0, 3), F(8, 3) + R3], 3),
            "ProvenUnbounded",
            "C.6",
        ),
    ]


DEGEN_PART_VERDICTS = [(0, "ClassC_c", None), (1, "ProvenUnbounded", "B.1")]
