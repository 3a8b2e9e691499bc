import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest

from congruent import tangent, verify
from congruent.elliptic import Point, curve_en

F = Fraction

# the legs of the seed triangle (3/2, 20/3, 41/6) of area 5
LEGS5 = (F(3, 2), F(20, 3))


def test_tangent_chain_validates_seed_area():
    with pytest.raises(ValueError, match="seed triangle area is not N"):
        tangent.tangent_chain(6, *LEGS5)


def test_tangent_chain_checks_the_legs_before_the_depth():
    with pytest.raises(ValueError, match="a and b are not the legs of a rational right triangle"):
        tangent.tangent_chain(5, 1, 1, depth=9)


def test_tangent_intersection_is_minus_double():
    p = Point(F(-4), F(6))
    e = curve_en(5)
    q = tangent.tangent_intersection(p, 5)
    assert q == -e.double(p)
    assert e.contains(q)


def test_chain_fixture_n5():
    chain = tangent.tangent_chain(5, *LEGS5, depth=3)
    assert chain.solutions == ((3, 2), (372, 2009), (169317668184, 15811196552161))
    assert chain.doubling_holds()
    for tri, point in zip(chain.triangles, chain.points, strict=True):
        assert tri.area == 5
        assert curve_en(5).contains(point)


@pytest.mark.parametrize("leg", ["a", "b", "c"])
def test_a_wrong_triangle_fails_the_doubling_relation(monkeypatch, leg):
    # triangle_point(a, b, c) = (a(a + c)/2, a^2(a + c)/2) cannot see b, so
    # the relation also requires each triangle to be right of area N
    real = tangent.tangent_chain

    def wrong(*args, **kwargs):
        chain = real(*args, **kwargs)
        first, *rest = chain.triangles
        return chain._replace(triangles=(first._replace(**{leg: getattr(first, leg) + 1}), *rest))

    assert dict(verify.suite_tangent())["N=5 doubling"]
    monkeypatch.setattr(tangent, "tangent_chain", wrong)
    assert not dict(verify.suite_tangent())["N=5 doubling"]


def test_chain_depth_guard():
    with pytest.raises(ValueError):
        tangent.tangent_chain(5, *LEGS5, depth=0)
    with pytest.raises(ValueError):
        tangent.tangent_chain(5, *LEGS5, depth=9)


def _solve_f_bruteforce(c1, c2, n):
    """Oracle: enumerate divisor splittings of c1 = |f1 f2| directly."""
    c1 = int(c1)
    for f2 in range(1, isqrt(c1) * 2 + c1 + 1):
        if c1 % f2:
            continue
        f1 = c1 // f2
        for s1, s2 in ((f1, f2), (f2, f1)):
            if abs(F(n * s1**2 - s2**2, 2)) == c2:
                return abs(s1), abs(s2)
    return None


def test_solve_f_matches_bruteforce():
    # the first chain step for N = 5 reads (c1, c2) off the hypotenuse 41/6
    f1, f2 = tangent.solve_f(6, F(41, 2), 5)
    assert (f1, f2) == _solve_f_bruteforce(6, F(41, 2), 5) == (3, 2)


def test_solve_f_rejects_off_chain():
    with pytest.raises(ValueError):
        tangent.solve_f(5, F(1, 2), 6)


def test_solve_f_second_step():
    chain = tangent.tangent_chain(5, *LEGS5, depth=2)
    c = abs(chain.triangles[0].c)
    f1, f2 = tangent.solve_f(c.denominator, F(c.numerator, 2), 5)
    assert (f1, f2) == chain.solutions[1]


def test_a_chain_reads_the_digit_limit_once(monkeypatch):
    # tangent_chain makes one printable checker and checks every step with it
    real = sys.get_int_max_str_digits
    reads = []
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: reads.append(1) or real())
    assert len(tangent.tangent_chain(5, *LEGS5, depth=3).solutions) == 3
    assert len(reads) == 1
