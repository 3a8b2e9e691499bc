import json
from fractions import Fraction

import pytest

from congruent import cli, conics, verify
from congruent.elliptic import Point, curve_en
from congruent.polyrat import RatFunc
from congruent.triples import RatTriangle

F = Fraction


def _tri(a, b, c):
    return RatTriangle(F(a), F(b), F(c))


def test_conic_input_validation():
    with pytest.raises(ValueError, match="f2\\^2 must be positive"):
        conics.f2_squared(6, 0)
    with pytest.raises(ValueError, match="f2\\^2 must be positive"):
        conics.f2_squared(-6, 1, adjoin="sqrtN")
    with pytest.raises(ValueError, match="unknown adjunction class"):
        conics.f2_squared(6, 1, adjoin="sqrt3N")
    assert conics.f2_squared(6, F(3, 2), adjoin="sqrt2N") == 27


def test_conic_triangle_has_area_n():
    tri = conics.conic_triangle(157, 87005, 610961)
    assert tri.area == 157
    assert tri.a**2 + tri.b**2 == tri.c**2


def test_conic_ec_points_lie_on_curve():
    for n, f1, f2, adjoin in (
        (157, 87005, 610961, "none"),
        (5, 1, 1, "none"),
        (79, 125, 52, "sqrtN"),
        (62, 20, 7, "sqrt2N"),
    ):
        tri = conics.conic_triangle(n, f1, f2, adjoin)
        p1, p2 = conics.conic_ec_points(tri)
        e = curve_en(n)
        assert e.contains(p1) and e.contains(p2)
        assert p1.y != 0 and p2.y != 0
        # the two abscissas multiply to -N^2
        assert p1.x * p2.x == -F(n) ** 2


def test_intersect_example_fixture():
    n_t, _, tri, p1, p2, _ = conics.intersect_example(3)
    assert n_t == 629
    assert tri == _tri("621/10", "12580/621", "405641/6210")
    assert (p1, p2) == (
        Point(F(-100), F(6210)),
        Point(F("395641/100"), F("245693061/1000")),
    )
    assert tri.area == 629


def test_intersect_family_other_parameters():
    for t in (2, 4, 5, 7):
        n_t, _, tri, p1, p2, _ = conics.intersect_example(t)
        assert tri.area == n_t
        e = curve_en(n_t)
        assert e.contains(p1) and e.contains(p2)


def _intersect_n_plus_one(forms):
    n_t, x_t, e_t = forms
    return n_t + 1, x_t, e_t


def _intersect_x_plus_one(forms):
    n_t, x_t, e_t = forms
    return n_t, x_t + 1, e_t


def _intersect_c_plus_one(tri):
    return tri._replace(c=tri.c + 1)


def _twin_n1_plus_one(ns):
    n1, n2 = ns
    return n1 + 1, n2


def _twin_b2_plus_one(sides):
    side1, (a2, b2) = sides
    return side1, (a2, b2 + 1)


INTERSECT_3 = ["conics", "intersect", "--t", "3"]
TWIN_10 = ["conics", "twin", "--t", "10"]


@pytest.mark.parametrize(
    "form, change, failing, argv, code",
    [
        ("_intersect_forms", _intersect_n_plus_one,
         {"area = N(t)", "P1 on curve", "P2 on curve"}, INTERSECT_3, 1),
        # x_t also builds the triangle, whose curve points are read off it
        ("_intersect_forms", _intersect_x_plus_one,
         {"pythagoras", "area = N(t)", "point on ellipse", "P1 on curve", "P2 on curve"}, INTERSECT_3, 1),
        # the points are read off a and c, so they leave E_{N(t)} with c
        ("signed_triangle", _intersect_c_plus_one,
         {"pythagoras", "P1 on curve", "P2 on curve"}, INTERSECT_3, 1),
        # the legs are built from the patched N1 too (a1 = -p1 q1 N1 / (2 s1)),
        # so a1 b1 / 2 = N1 for any N1; a1^2 + b1^2 is no longer a square, and
        # from_legs refuses the legs at t = 10
        ("_twin_n", _twin_n1_plus_one, {"area1 = N1"}, TWIN_10, 3),
        ("_twin_sides", _twin_b2_plus_one, {"area2 = N2"}, TWIN_10, 3),
    ],
    ids=["N(t)+1", "ellipse x+1", "c+1", "N1+1", "b2+1"],
)  # fmt: skip
def test_perturbed_conic_form_fails_by_name(monkeypatch, capsys, form, change, failing, argv, code):
    # the form fails its proof in t by name, and its command at the gate's t
    import test_identities as identities  # the sympy proofs; skipped without sympy
    proofs = identities.twin_proofs if form.startswith("_twin") else identities.intersect_proofs
    proved = proofs()
    assert failing <= proved.keys() and all(proved.values())
    original = getattr(conics, form)
    monkeypatch.setattr(conics, form, lambda *args: change(original(*args)))
    assert proofs() == {name: name not in failing for name in proved}
    assert cli.main(argv + ["--json"]) == code
    if code == 1:
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {c["name"] for c in checks if not c["pass"]} == failing


def test_intersect_builds_no_rational_function(monkeypatch):
    # its identities in t are proved in tests/test_identities.py, not per call
    def refuse(*args):
        raise AssertionError("RatFunc built")

    monkeypatch.setattr(RatFunc, "__init__", refuse)
    with pytest.raises(AssertionError, match="RatFunc built"):
        conics.twin_polynomial_identities()
    assert cli.main(INTERSECT_3) == 0
    assert all(ok for _, ok in verify.suite_conics_intersect())


def test_reduce_raise_roundtrip():
    tri = conics.intersect_example(3).triangle
    assert conics.reduce_raise(tri.scaled(F(1, 5))) == (629, tri)


def test_lattice_secondary_fixture():
    results = conics.lattice_secondary(1, 2, 3)
    assert [r.n2 for r in results] == [188885, 58645, 7585, 84545]
    for r in results:
        tri = r.triangle
        assert tri.a**2 + tri.b**2 == tri.c**2
        assert tri.congruent_number() == r.primitive
    # each second intersection lies on the (1, m^2+n^2) ellipse
    for m, n, t in ((1, 2, 3), (2, 1, 3), (1, 2, 2), (3, 2, 2), (1, 2, F(-5, 2))):
        s2 = (m**2 + n**2) ** 2
        for r in conics.lattice_secondary(m, n, t):
            assert r.e2**2 == r.x2 * s2 - (r.x2 - s2) ** 2 / 4


def test_lattice_secondary_matches_its_closed_form_at_integer_t():
    # the slope-t line through (x_i, sign * e_i) is the one whose second
    # intersection N(u, v, sign * t) raises; through (x_i, |e_i|) most of
    # these inputs raised "secondary congruent number mismatch"
    checked = 0
    for m in range(-4, 5):
        for n in range(-4, 5):
            for t in (-3, -2, -1, 1, 2, 3):
                try:
                    results = conics.lattice_secondary(m, n, t)
                except ValueError:  # a tangent line or a degenerate second point
                    continue
                for r in results:
                    assert r.x2 * (4 * t**2 + 1) ** 2 == r.n2
                    checked += 1
    assert checked == 4 * 440


def test_lattice_points_self_check():
    for m, n in ((1, 2), (2, 1), (1, 3)):
        conics.lattice_example(m, n)  # raises on any internal mismatch


def test_lattice_points_fixtures():
    _, _, pts, tris, _, _ = conics.lattice_example(1, 2)
    assert pts == ((145, 5), (65, -35), (5, 5), (85, -35))
    assert tris == (
        _tri("17/12", "3480/17", "41761/204"),
        _tri("63/4", "520/63", "4481/252"),
        _tri("-3/2", "-20/3", "-41/6"),
        _tri("77/6", "1020/77", "8521/462"),
    )
    _, _, pts, tris, _, _ = conics.lattice_example(3, 5)
    assert pts == ((6596, 476), (2516, -1564), (340, 476), (4420, -1564))
    assert tris == (
        _tri("399/20", "263840/399", "5279201/7980"),
        _tri("621/5", "25160/621", "405641/3105"),
        _tri("-77/3", "-2040/77", "-8521/231"),
        _tri("943/12", "106080/943", "1552801/11316"),
    )


def test_lattice_points_sweep():
    checked = 0
    for m in range(-6, 7):
        for n in range(-6, 7):
            try:
                _, _, pts, tris, _, _ = conics.lattice_example(m, n)
            except ValueError:
                continue
            s = m**2 + n**2
            for (x, e), tri in zip(pts, tris):
                assert tri.area == x
                assert e**2 == x * s**2 - F(x - s**2) ** 2 / 4
                checked += 1
    assert checked == 480


def test_lattice_points_degenerate_inputs_name_the_leg():
    for (m, n), leg in (((1, 0), "a1"), ((0, 1), "a3"), ((1, 1), "a2")):
        with pytest.raises(ValueError, match=f"denominator of {leg} vanishes"):
            conics.lattice_example(m, n)


def test_twin_hyperbolas_fixture():
    n1, n2, t1, t2, _ = conics.twin_hyperbolas(10)
    assert (n1, n2) == (153798, 350646)
    for n, tri in ((n1, t1), (n2, t2)):
        assert tri.a**2 + tri.b**2 == tri.c**2
        assert tri.area == n


def test_twin_hyperbolas_more_parameters():
    for t in (3, 5, 7):
        n1, n2, t1, t2, _ = conics.twin_hyperbolas(t)
        assert t1.a**2 + t1.b**2 == t1.c**2
        assert t2.a**2 + t2.b**2 == t2.c**2


def test_twin_polynomial_identities():
    checks = conics.twin_polynomial_identities()
    assert checks and all(ok for _, ok in checks)
