"""A rational differential-geometric system built on three spheres.

The sides of the three derived rational triangles, divided by their
common quadratic norm and parameterized by t = m/n, trace rational points
p1, p2, p3 on three concentric spheres of squared radii 1, 1/2, 3/2.
Reinterpreting them as vectors a = p1, b = p2 with y negated and c = p3
with z negated yields an orthogonality structure (a ⟂ b ⟂ c, a·c = 1)
that survives differentiation in a long list of exact identities.  The
nine sphere components are integer numerators over the one denominator
2(t^8 + 14t^4 + 1).  The sphere relations and the vector identities are
proved in one pass by exact evaluation, each compared in integers over
one common scale.  The base facts (planes, norms, Pythagoras and one
linear relation per pair of vectors) count as proved once they hold at
more points than the degree bound of their cleared polynomial forms,
taken in t^2 as every component is even; they are read from the values
at each point.  They imply every other identity at every order, and each
of those is evaluated once, at the last point, from the derivatives that
a division-free Taylor recurrence gives there, and gated on the base
facts at every point.  The sphere loci are twenty signed circles with
trigonometric parameterizations in three families.  A sign flip is
orthogonal, so each family is proved exact on its base circle alone, in
integers, from its data cleared by one scale for the vectors and one for
the scalars.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import factorial, lcm

from .exact import EffortOutOfRange
from .triples import derive

__all__ = [
    "Vec3F",
    "verify_derivative_identities",
    "sum_of_squares_identity",
    "circle_check",
    "identities",
]

# The largest derivative order: order 6 takes about 0.003 s in process on a
# 2-vCPU host, and the checks grow with the order squared.
MAX_ORDER = 6


class Vec3F(namedtuple("Vec3F", "x y z")):
    """A 3-vector of exact numbers: scaled values at a point, or circle data."""

    __slots__ = ()

    def dot(self, other):
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other):
        return Vec3F(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm2(self):
        return self.dot(self)

    def scaled(self, k):
        return Vec3F(self.x * k, self.y * k, self.z * k)

    def __sub__(self, other):
        return Vec3F(self.x - other.x, self.y - other.y, self.z - other.z)

    def is_zero(self):
        return self.x == 0 and self.y == 0 and self.z == 0


def _flip(signs, vec):
    return Vec3F(*(s * x for s, x in zip(signs, vec)))


# Every sphere component is an integer numerator over the one denominator
# _DEN = 2d, d = t^8 + 14t^4 + 1, all coefficients lowest degree first.
# They are the product forms
#   sphere 1: ((t^4-1)^2, 4t^2(t^2+1)^2, 4t^2(t^2-1)^2) / d
#   sphere 2: 4t^2(t^4+1) / d, (t^2-1)^2(t^4+6t^2+1) / 2d,
#             -(t^2+1)^2(t^4-6t^2+1) / 2d
#   sphere 3: (t^8+6t^4+1) / d, (t^8+4t^6+22t^4+4t^2+1) / 2d,
#             (t^8-4t^6+22t^4-4t^2+1) / 2d
_DEN = (2, 0, 0, 0, 28, 0, 0, 0, 2)
_SPHERES = {
    1: ((2, 0, 0, 0, -4, 0, 0, 0, 2),
        (0, 0, 8, 0, 16, 0, 8, 0, 0),
        (0, 0, 8, 0, -16, 0, 8, 0, 0)),
    2: ((0, 0, 8, 0, 0, 0, 8, 0, 0),
        (1, 0, 4, 0, -10, 0, 4, 0, 1),
        (-1, 0, 4, 0, 10, 0, 4, 0, -1)),
    3: ((2, 0, 0, 0, 12, 0, 0, 0, 2),
        (1, 0, 4, 0, 22, 0, 4, 0, 1),
        (1, 0, -4, 0, 22, 0, -4, 0, 1)),
}


def _taylor(coeffs, t0, order):
    """[c_0, ..., c_order] with sum c_k h^k = sum coeffs[i] (t0 + h)^i, through h^order.

    Each synthetic division by (t - t0) (Horner) yields the next Taylor
    coefficient as its remainder and leaves the quotient for the next one.
    """
    cs = list(reversed(coeffs))
    out = []
    for _ in range(order + 1):
        acc = 0
        for i, c in enumerate(cs):
            acc = acc * t0 + c
            cs[i] = acc
        out.append(cs.pop() if cs else 0)
    return out


def _derivatives(nums, den, t0, order):
    """Exact f(t0), f'(t0), ..., f^(order)(t0) of each f = num/den over one scale.

    Returns (values, S) with f^(k)(t0) = values[i][k] / S for f = nums[i]/den
    and S = den(t0)^(order+1): ints at an integer t0 when the coefficients
    are ints, Fractions at a Fraction t0.  Taylor-mode differentiation
    (Griewank & Walther, Evaluating Derivatives, ch. 13): with
    num(t0 + h) = sum p_k h^k and den(t0 + h) = sum q_k h^k, f has Taylor
    coefficients f_k = (p_k - sum_{j=1..k} q_j f_{k-j}) / Q with Q = q_0.
    The F_k = f_k Q^(k+1) obey F_k = p_k Q^k - sum_{j=1..k} q_j F_{k-j} Q^(j-1),
    with no division, and f^(k)(t0) = k! F_k Q^(order-k) / Q^(order+1).
    The denominator is shifted once for all the numerators.
    """
    q = _taylor(den, t0, order)
    q0 = q[0]
    if q0 == 0:
        # a zero scale would make every scaled comparison hold vacuously
        raise ZeroDivisionError(f"pole at t={t0}")
    powers = [1]
    for _ in range(order + 1):
        powers.append(powers[-1] * q0)
    values = []
    for num in nums:
        p = _taylor(num, t0, order)
        f = []
        for k in range(order + 1):
            carry = sum(q[j] * f[k - j] * powers[j - 1] for j in range(1, k + 1))
            f.append(p[k] * powers[k] - carry)
        values.append([factorial(k) * fk * powers[order - k] for k, fk in enumerate(f)])
    return values, powers[order + 1]


# Degree bound.  Call P/d^w, with d = t^8 + 14t^4 + 1 and deg P <= 8w, a
# function of weight w (a constant factor, as in _DEN = 2d, does not
# matter).  Each sphere component is deg 8 over 2d, weight 1.  Over the
# common denominator d^max(w, v), a sum has weight max(w, v); a product
# has weight w + v.  A fact of weight w therefore clears to a polynomial
# identity of degree <= 8w, and as d > 0 at every real t, it holds
# identically once it holds at 8w + 1 distinct rational points.
#
# Parity.  When d and every numerator hold only even powers of t, each
# component is even, and so is the cleared form P of a fact on values
# alone: P = Q(t^2) with deg Q <= 4w.  P vanishing at t0 = 0, 1, ..., 4w
# makes Q vanish at the 4w + 1 squares 0, 1, ..., (4w)^2, so Q = 0.  A
# table with any odd power keeps the 8w + 1 points.
#
# Theorem.  With k = (1, 1, -1)/2, the base facts are plane1..3
# (k.a = 1/2, k.b = 0, k.c = 1), norm1..3, the componentwise Pythagoras of
# p1, p2, p3 and one linear relation per pair: 2c = a + 2k, 2b = 2k x a and
# b = 2k x c.  All are facts on values of weight <= 2, proved identically
# in t at _points(2), the 9 points 0..8 of the even table.  Their
# derivatives give k.d^n a = 0, d^n c = d^n a/2 and d^n b = k x d^n a for
# n >= 1, and with Lagrange's identity |u x v|^2 = |u|^2 |v|^2 - (u.v)^2
# and u x (v x w) = v(u.w) - w(u.v) they imply every other check at every
# order: 3 d^n a.d^m a = 4 d^n b.d^m b, say, as d^n b.d^m b equals
# |k|^2 d^n a.d^m a - (k.d^n a)(k.d^m a).  A check on the vectors V needs
# only the plane and norm of each vector in V and the relation of each
# pair in V, which define the others; the derivative planes of p_i need
# only plane i.  So each such check is evaluated once, at the last of the
# base facts' points, gated on its premises at all of them: the theorem
# proves it, and the evaluation keeps it a computed predicate that fails
# on a wrong formula.  The other points need only the values, the jets of
# order 0.
#
# Scale.  At each integer point every value is an integer over the one
# scale S = (2 d(t0))^(order+1) of _DEN (see _derivatives), so a product
# of j values is an integer over S^j.  Each check compares integers with
# both sides at the same power of S: a constant facing a product of j
# values is multiplied by S^j, as in a.c = 1 becoming a.c == S^2 and
# 2c = a + 2k becoming 2c - a == S(1, 1, -1).  As S != 0, the integer
# equality holds exactly when the rational one does.
def _points(weight):
    even = all(not any(f[1::2]) for f in (_DEN, *(f for v in _SPHERES.values() for f in v)))
    return range((4 if even else 8) * weight + 1)


def _jets(t0, order):
    """The jets [p, p', ..., p^(order)] of the three sphere points at t0.

    Returns (jets, S): the k-th derivative of sphere i's point at t0 is
    jets[i - 1][k] / S, and at an integer t0 every entry is an int.
    """
    nums = [f for v in _SPHERES.values() for f in v]
    values, scale = _derivatives(nums, _DEN, t0, order)
    jets = [[Vec3F(*ks) for ks in zip(*values[i : i + 3])] for i in range(0, len(values), 3)]
    return jets, scale


def _vectors(t0, order):
    """The jets of a = p1, b = p2 with y negated, c = p3 with z negated at t0, and their scale."""
    (d1, d2, d3), S = _jets(t0, order)
    return d1, [_flip((1, -1, 1), e) for e in d2], [_flip((1, 1, -1), e) for e in d3], S


def _base_facts(da, db, dc, S):
    """The base facts at one point, on the values of the jets da, db, dc over the scale S.

    The planes, norms and componentwise Pythagoras of p1, p2, p3, all read
    on a, b, c as a sign flip keeps each square, then the relations
    2b = 2k x a, 2c = a + 2k and b = 2k x c of the pairs AB, AC and BC.
    """
    a, b, c = da[0], db[0], dc[0]
    ones = Vec3F(1, 1, -1)  # 2k
    S2 = S * S
    return (
        ones.dot(a) == S, ones.dot(b) == 0, ones.dot(c) == 2 * S,
        a.norm2() == S2, 2 * b.norm2() == S2, 2 * c.norm2() == 3 * S2,
        a.x**2 + b.x**2 == c.x**2, a.y**2 + b.y**2 == c.y**2, a.z**2 + b.z**2 == c.z**2,
        b.scaled(2) == ones.cross(a), c.scaled(2) - a == ones.scaled(S), b == ones.cross(c),
    )


def _battery(t0, max_order, held=()):
    """Every check of the pass, on one table of sphere jets at t0 over its scale S.

    The sphere relations of p1, p2, p3 come first, then the vector
    identities on a, b, c.  Each base fact reads its value at t0 ANDed
    with its values in held, one tuple of _base_facts per other point, and
    each norm is reported under both of its names.  Every other check is
    evaluated at t0 alone and gated on its premises (see the theorem
    above): plane i for the derivative planes of p_i, and AB, AC, BC and
    ABC for the vector checks on those letters.
    """
    da, db, dc, S = _vectors(t0, max_order)
    a, b, c = da[0], db[0], dc[0]
    facts = [all(f) for f in zip(_base_facts(da, db, dc, S), *held)]
    plane1, plane2, plane3, norm1, norm2, norm3, px, py, pz, rel_ab, rel_ac, rel_bc = facts
    S2, S3 = S * S, S**3
    ones = Vec3F(1, 1, -1)  # 2k
    checks = [
        ("plane1: x1+y1-z1 = 1", plane1),
        ("plane2: x2-y2-z2 = 0", plane2),
        ("plane3: x3+y3+z3 = 2", plane3),
        ("norm1 = 1", norm1),
        ("norm2 = 1/2", norm2),
        ("norm3 = 3/2", norm3),
        ("x1^2+x2^2 = x3^2", px),
        ("y1^2+y2^2 = y3^2", py),
        ("z1^2+z2^2 = z3^2", pz),
    ]
    for n in range(1, max_order + 1):
        for i, (plane, d) in enumerate(((plane1, da), (plane2, db), (plane3, dc)), 1):
            checks.append((f"d^{n} plane{i} = 0", plane and ones.dot(d[n]) == 0))

    A, B, C = plane1 and norm1, plane2 and norm2, plane3 and norm3
    AB, AC, BC = A and B and rel_ab, A and C and rel_ac, B and C and rel_bc
    ABC = AB and AC and BC
    aa, cc, ac = a.norm2(), c.norm2(), a.dot(c)
    axb, bxc = a.cross(b), b.cross(c)
    checks += [
        ("a.b = 0", AB and a.dot(b) == 0),
        ("b.c = 0", BC and b.dot(c) == 0),
        ("a.c = 1", AC and ac == S2),
        ("|a|^2 = 1", norm1),
        ("|b|^2 = 1/2", norm2),
        ("|c|^2 = 3/2", norm3),
        ("cos^2(a,c) = 2/3", AC and 3 * ac**2 == 2 * aa * cc),
        ("cos^2(axb,c) = 1/3", ABC and 3 * axb.dot(c) ** 2 == axb.norm2() * cc),
        ("cos^2(bxc,a) = 1/3", ABC and 3 * bxc.dot(a) ** 2 == bxc.norm2() * aa),
        ("a.(bxc) = 1/2", ABC and 2 * a.dot(bxc) == S3),
        ("b.(cxa) = 1/2", ABC and 2 * b.dot(c.cross(a)) == S3),
        ("c.(axb) = 1/2", ABC and 2 * c.dot(axb) == S3),
        ("ax(bxc) = b", ABC and a.cross(bxc) == b.scaled(S2)),
        ("cx(bxa) = b", ABC and c.cross(b.cross(a)) == b.scaled(S2)),
        ("cxa = b", ABC and c.cross(a) == b.scaled(S)),
        ("bx(axc) = 0", ABC and b.cross(a.cross(c)).is_zero()),
    ]
    for n in range(1, max_order + 1):
        an, bn, cn = da[n], db[n], dc[n]
        acn = an.dot(cn)
        checks.append((f"d{n}a.d{n}b = 0", AB and an.dot(bn) == 0))
        checks.append((f"d{n}b.d{n}c = 0", BC and bn.dot(cn) == 0))
        checks.append((f"d{n}a.d{n}c = |d{n}a|^2/2", AC and 2 * acn == an.norm2()))
        checks.append((f"d{n}a.d{n}c = 2|d{n}b|^2/3", ABC and 3 * acn == 2 * bn.norm2()))
        checks.append((f"d{n}a.d{n}c = 2|d{n}c|^2", AC and acn == 2 * cn.norm2()))
        checks.append((f"d{n}a x d{n}c = 0", AC and an.cross(cn).is_zero()))
    for n in range(1, max_order + 1):
        an, bn, cn = da[n], db[n], dc[n]
        for m in range(1, max_order + 1):
            am, bm, cm = da[m], db[m], dc[m]
            bn_cm, bn_am, an_am = bn.dot(cm), bn.dot(am), an.dot(am)
            bxc2, axa, axc3 = bn.cross(cm).scaled(2), an.cross(am), an.cross(cm).scaled(3)
            bxc_bxa = ABC and bxc2 == bn.cross(am)
            checks += [
                (f"2 d{n}b.d{m}c = d{n}b.d{m}a", ABC and 2 * bn_cm == bn_am),
                (f"2 d{n}b x d{m}c = d{n}b x d{m}a", bxc_bxa),
                (f"3 d{n}a.d{m}a = 4 d{n}b.d{m}b", AB and 3 * an_am == 4 * bn.dot(bm)),
                (f"3 d{n}a.d{m}a = 12 d{n}c.d{m}c", AC and an_am == 4 * cn.dot(cm)),
                (f"3 d{n}a x d{m}a = 4 d{n}b x d{m}b",
                 AB and axa.scaled(3) == bn.cross(bm).scaled(4)),
                (f"3 d{n}a x d{m}a = 12 d{n}c x d{m}c", AC and axa == cn.cross(cm).scaled(4)),
                (f"(d{n}a.d{m}c)(-1,-1,1) = 2 d{n}b x d{m}c",
                 ABC and ones.scaled(-an.dot(cm)) == bxc2),
                (f"2 d{n}b x d{m}c = d{n}b x d{m}a", bxc_bxa),
                (f"3 d{n}a x d{m}c = 2(d{n}b.d{m}c)(1,1,-1)",
                 ABC and axc3 == ones.scaled(2 * bn_cm)),
                (f"3 d{n}a x d{m}c = (d{n}b.d{m}a)(1,1,-1)", ABC and axc3 == ones.scaled(bn_am)),
            ]
    return checks


def verify_derivative_identities(max_order=4):
    """Every sphere relation and vector identity of the system, proved exactly.

    Covers the planes, norms and componentwise Pythagoras of the three
    sphere points and the planes of their derivatives; then the base
    orthogonality/norm facts of a, b, c, triple products, the same-order
    derivative relations, and the mixed-order dot/cross symmetries for
    1 <= n, m <= max_order.  The base facts have weight at most 2 and
    imply every other check (see the theorem above), so at every order the
    even sphere table is proved at the 9 points 0..8 (a table with an odd
    power would need 17).  The base facts are read at each point from its
    values alone, the jets of order 0; every other check is evaluated once,
    at the last point from its jets through max_order, and gated on its
    premises at all of them.  Returns a list of (name, bool).
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise EffortOutOfRange("max_order", 1, MAX_ORDER, max_order)
    *rest, last = _points(2)
    held = [_base_facts(*_vectors(t0, 0)) for t0 in rest]
    return _battery(last, max_order, held)


def sum_of_squares_identity(m, n):
    """The common squared norm of the three side vectors for one (m, n).

    Whether sum a_i^2 = 2 sum b_i^2 = (2/3) sum c_i^2
    = (2(C^4 - (AB)^2)/(ABC))^2 over the derived triples, compared as the
    integer numerators over D^2 of the sides over the one D = ABC.
    """
    pair = derive(m, n)
    t = pair.triple
    sa, sb, sc = (sum(x**2 for x in column) for column in zip(*pair.sides))
    root = 2 * (t.c**4 - (t.a * t.b) ** 2)
    return 3 * sa == 6 * sb == 2 * sc == 3 * root**2


# The base circle (signs (1, 1, 1)) of each family: center C, directions u
# and v with scales su and sv, plane normal and constant, the squared radius
# of the sphere about the origin it lies on and its own squared radius.
# Families 1 and 3 also lie on a second sphere, with center k·signs and
# squared radius r2 given as second = (k, r2), which cuts the first one
# along the circle.
_FAMILY = {
    1: dict(
        C=(Fraction(1, 3),) * 3, u=(-1, 1, 0), su=Fraction(1, 3),
        v=(Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3)), sv=1,
        normal=(1, 1, 1), const=1, sphere2=1, radius2=Fraction(2, 3), second=(1, 2),
    ),
    2: dict(
        C=(0, 0, 0), u=(Fraction(-1, 2), Fraction(-1, 2), 0), su=1,
        v=(Fraction(-1, 2), Fraction(1, 2), -1), sv=Fraction(1, 3),
        normal=(1, -1, -1), const=0, sphere2=Fraction(1, 2), radius2=Fraction(1, 2), second=None,
    ),
    3: dict(
        C=(Fraction(2, 3),) * 3, u=(Fraction(-1, 2), Fraction(1, 2), 0), su=Fraction(1, 3),
        v=(Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 3)), sv=1,
        normal=(1, 1, 1), const=2, sphere2=Fraction(3, 2), radius2=Fraction(1, 6),
        second=(Fraction(3, 4), Fraction(3, 16)),
    ),
}


def _on_sphere(w, u, v, su, sv, r2, scale):
    """Whether the circle p(θ) = C + cos θ·√su·u + sin θ·√sv·v has |p(θ) - q|^2 = r2.

    With w = C - q, |p(θ) - q|^2 = |w|^2 + (su|u|^2 + sv|v|^2)/2
    + cos 2θ (su|u|^2 - sv|v|^2)/2 + sin 2θ √(su sv) u·v
    + 2 cos θ √su w·u + 2 sin θ √sv w·v, and 1, cos θ, sin θ, cos 2θ,
    sin 2θ are linearly independent functions of θ.  The data are ints: the
    vectors times V, su and sv times scale and r2 times V^2 scale.
    """
    uu = su * u.norm2()
    return (
        uu == sv * v.norm2()
        and u.dot(v) == 0
        and w.dot(u) == 0
        and w.dot(v) == 0
        and scale * w.norm2() + uu == r2
    )


def _cleared(values, scale):
    """The ints x * scale of rationals x whose denominators divide scale, built without Fraction."""
    return [x.numerator * (scale // x.denominator) for x in values]


def circle_check():
    """Exact proof that every signed circle lies where it should.

    For every angle, each point must lie on its sphere about the origin,
    on its plane, at its squared radius from its center and (families 1
    and 3) on the second sphere of the intersection-path description.
    The own-radius condition su|u|^2 = radius2 > 0 also makes su and sv
    positive, so each p(θ) is a real point.  Each condition is compared in
    ints, at the power of the family's vector and scalar scales it carries.
    Each family is proved on its base circle, which proves its sign sets
    too (see below).  Returns (count, failed): the number of circles and
    the (family, signs) of those that fail.
    """
    failed = []
    count = 0
    for family, info in _FAMILY.items():
        if family == 2:
            # flipping all three signs retraces the same circle, so only
            # sign patterns up to global negation are distinct
            sign_sets = [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)]
        else:
            sign_sets = list(product((1, -1), repeat=3))
        count += len(sign_sets)
        seconds = [info["second"]] if info["second"] is not None else []
        vectors = [info[k] for k in ("C", "u", "v", "normal")] + [(k, k, k) for k, _ in seconds]
        scalars = [info[k] for k in ("su", "sv", "const", "sphere2", "radius2")]
        scalars += [r2 for _, r2 in seconds]
        vscale = lcm(*[x.denominator for vec in vectors for x in vec])
        scale = lcm(*[x.denominator for x in scalars])
        center, u, v, normal, *ks = (Vec3F(*_cleared(vec, vscale)) for vec in vectors)
        su, sv, const, *radii = _cleared(scalars, scale)
        v2 = vscale * vscale
        # A sign flip F is orthogonal, Fx.Fy = x.y, and it is applied to
        # every vector datum of a circle: C, u, v, the normal and the second
        # center (k, k, k); the origin is its own flip.  Every condition
        # below is a dot product of two such vectors or of their differences,
        # so it holds for a signed circle exactly when it holds for the base
        # circle, and the family's sign sets pass or fail together.
        in_plane = scale * normal.dot(center) == v2 * const and normal.dot(u) == normal.dot(v) == 0
        spheres = zip([Vec3F(0, 0, 0), center, *ks], radii)
        on_spheres = all(_on_sphere(center - q, u, v, su, sv, v2 * r2, scale) for q, r2 in spheres)
        if not (in_plane and on_spheres):
            failed += [(family, signs) for signs in sign_sets]
    return count, failed


class Identities(namedtuple("Identities", "circles circles_failed max_order")):
    """circle_check's count of circles and the failed ones; checks() proves every identity."""

    __slots__ = ()

    def checks(self):
        checks = verify_derivative_identities(self.max_order)
        for m, n in ((2, 1), (3, 2), (4, 1), (5, 2)):
            checks.append((f"side-vector norm identity (m,n)=({m},{n})", sum_of_squares_identity(m, n)))
        return checks + [("trig circles numeric", not self.circles_failed)]


def identities(max_order=4):
    """The Identities of circle_check(), proved to derivative order max_order."""
    if not 1 <= max_order <= MAX_ORDER:  # before any work
        raise EffortOutOfRange("max_order", 1, MAX_ORDER, max_order)
    return Identities(*circle_check(), max_order)
