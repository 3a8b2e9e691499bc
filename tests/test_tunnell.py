"""Tunnell's criterion as an independent oracle on every number the package certifies.

Tunnell (1983, Invent. Math. 72) showed that a squarefree congruent N has
    #{N = 2x^2 + y^2 + 8z^2} = 2 #{N = 2x^2 + y^2 + 32z^2}      for odd N,
    #{N/2 = 4x^2 + y^2 + 8z^2} = 2 #{N/2 = 4x^2 + y^2 + 32z^2}  for even N,
counting integer solutions (x, y, z).  That direction is unconditional (the
converse needs Birch and Swinnerton-Dyer), so a number the package certifies
as congruent that fails the count would be a bug in the package or the paper.
"""

from fractions import Fraction
from math import gcd, isqrt

from congruent import cassini, conics, footprints, recurrence, sequences, triples
from congruent.exact import squarefree_part

# The count takes about 0.2 N steps, so squarefree parts above this are skipped.
TUNNELL_CAP = 10**6


def _representations(m, a, c):
    """The number of integer (x, y, z) with m = a x^2 + y^2 + c z^2."""
    total = 0
    for x in range(isqrt(m // a) + 1):
        for z in range(isqrt((m - a * x * x) // c) + 1):
            r = m - a * x * x - c * z * z
            y = isqrt(r)
            if y * y == r:
                total += (2 if x else 1) * (2 if y else 1) * (2 if z else 1)
    return total


def tunnell_counts_agree(n):
    """Tunnell's equality for a squarefree n >= 1; every congruent n satisfies it."""
    m, a = (n, 2) if n % 2 else (n // 2, 4)
    return _representations(m, a, 8) == 2 * _representations(m, a, 32)


def _certified_numbers():
    """Each congruent number the package constructs a triangle for, from small inputs."""
    yield from (r["row"].n for r in footprints.verify_tables() if r["ok"])
    # the reference tree's congruent numbers, each a step of a walk from its root
    for n0, tri0 in recurrence._tree_table()[0].items():
        yield n0
        for path in ("aa", "ab", "ba", "bb"):
            yield from (n for n, _ in recurrence.walk(tri0, n0, path))
    for k in range(1, 8):
        yield sequences.fib_even_family(k)[1]
        yield sequences.fib_odd_family(k)[1]
        yield sequences.brahmagupta(k).semiperimeter
    for m in range(1, 6):
        for k in range(2, 8):
            yield sequences.cheb_family(m, k)[1]
    for m in range(2, 12):
        for n in range(1, m):
            if gcd(m, n) == 1 and (m - n) % 2:
                q = triples.derive(m, n).quad
                yield from (q.n, q.n_ac, q.n_bc, q.n_ba)
    yield conics.conic_triangle(157, 87005, 610961).area
    for t in (Fraction(1, 3), 2, 3, Fraction(5, 2), 4, 7):
        yield conics.intersect_example(t)[0]
        yield from conics.twin_hyperbolas(t)[:2]
    for m, n in ((1, 2), (2, 1), (3, 5), (1, 3)):
        yield from (x for x, _ in conics.lattice_example(m, n).points)
    for m, n, t in ((1, 2, 3), (2, 1, 3), (1, 2, 2), (3, 2, 2)):
        yield from (r.primitive for r in conics.lattice_secondary(m, n, t))
    yield cassini.heegner_two(29, 1, -13).triangle.area
    yield cassini.heegner_two(62, 20, 7, adjoin="sqrt2N").triangle.area
    yield cassini.heegner_four(79, 125, 52**2).triangle.area


def test_tunnell_rejects_the_small_non_congruent_numbers():
    assert not any(tunnell_counts_agree(n) for n in (1, 2, 3, 10, 11))
    assert all(tunnell_counts_agree(n) for n in (5, 6, 7, 13, 14, 15))


def test_every_certified_number_passes_tunnell():
    parts = set()
    for n in _certified_numbers():
        n = Fraction(n)
        parts.add(abs(squarefree_part(n.numerator * n.denominator)))
    checked = sorted(d for d in parts if d <= TUNNELL_CAP)
    assert len(checked) >= 150
    assert [d for d in checked if not tunnell_counts_agree(d)] == []
