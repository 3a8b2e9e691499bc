"""Output checks that share no code with the program.

``check_envelope`` re-derives, with ``Fraction`` arithmetic only, the
facts each CLI result claims: every right triangle satisfies
a^2 + b^2 = c^2 and has the stated area N, every point on a congruent-number
curve satisfies y^2 = x^3 - N^2 x, and the closed forms of each family give
the printed congruent numbers.  ``check_gate`` counts the named checks of
``verify.run_all()``.  Each returns a list of problems; empty means correct.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import isqrt

GATE_CHECKS = 307
FOOTPRINT_ROWS = 143


def is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def right_triangle_problems(tri, area, label):
    a, b, c = F(tri["a"]), F(tri["b"]), F(tri["c"])
    out = []
    if a * a + b * b != c * c:
        out.append(f"{label}: a^2 + b^2 != c^2")
    if a * b / 2 != area:
        out.append(f"{label}: area {a * b / 2} != {area}")
    return out


def cubic_problems(pt, a2, a4, a6, label):
    x, y = F(pt["x"]), F(pt["y"])
    if y * y != x**3 + a2 * x * x + a4 * x + a6:
        return [f"{label}: point off the curve"]
    return []


def en_problems(pt, n, label):
    """y^2 = x^3 - N^2 x."""
    return cubic_problems(pt, 0, -n * n, 0, label)


def double_x(pt, n):
    """x(2P) on y^2 = x^3 - N^2 x by the tangent slope."""
    x, y = F(pt["x"]), F(pt["y"])
    slope = (3 * x * x - n * n) / (2 * y)
    return slope * slope - 2 * x


def chebyshev_t(m, x):
    prev, cur = 1, x
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def lucas_fib(n):
    f0, f1, l0, l1 = 0, 1, 2, 1
    for _ in range(n):
        f0, f1, l0, l1 = f1, f0 + f1, l1, l0 + l1
    return f0, l0


def _triples(inp, res):
    m, n = inp["m"], inp["n"]
    areas = [F(v) for v in res["areas"]]
    out = []
    if areas[0] != m * n * (m * m - n * n):
        out.append("Euclid area != mn(m^2-n^2)")
    for key, area in zip(("triple_ac", "triple_bc", "triple_ba"), areas[1:]):
        out += right_triangle_problems(res[key], area, key)
    for sol in res["concordant"]:
        x, y, z, t, big_n = (F(sol[k]) for k in ("x", "y", "z", "t", "n"))
        if x * x + big_n * y * y != z * z or x * x - big_n * y * y != t * t:
            out.append(f"concordant solution for N={big_n} fails x^2 +- N y^2")
    return out


def _conics(sub, inp, res):
    out = []
    if sub == "triangle":
        n = F(inp["n"])
        out += right_triangle_problems(res["triangle"], n, "triangle")
        out += en_problems(res["p1"], n, "p1") + en_problems(res["p2"], n, "p2")
    elif sub == "intersect":
        t = F(inp["t"])
        n = (4 * t * t + 1) * (4 * t * t - 8 * t + 5)
        if F(res["n"]) != n:
            out.append("N(t) != (4t^2+1)(4t^2-8t+5)")
        out += right_triangle_problems(res["triangle"], n, "triangle")
        out += en_problems(res["p1"], n, "p1") + en_problems(res["p2"], n, "p2")
        if inp["f"] == 1:
            x, e = F(res["ellipse_point"]["x"]), F(res["ellipse_point"]["e"])
            if e * e != x - (x - 1) ** 2 / 4:
                out.append("ellipse point off e^2 = x - (x-1)^2/4")
    elif sub == "lattice":
        for i, (pt, tri) in enumerate(zip(res["points"], res["triangles"])):
            out += right_triangle_problems(tri, F(pt["x"]), f"lattice triangle {i}")
        for i, sec in enumerate(res.get("secondary", ())):
            prim = F(sec["primitive"])
            out += right_triangle_problems(sec["triangle"], prim, f"secondary {i}")
            ratio = F(sec["n2"]) / prim
            if not (is_square(ratio.numerator) and is_square(ratio.denominator)):
                out.append(f"secondary {i}: N2 and its primitive differ by a non-square")
    else:  # twin
        t = F(inp["t"])
        n1 = 2 * (11 * t**4 - 36 * t**3 + 30 * t**2 - 12 * t + 19)
        n2 = 2 * (11 * t**4 + 60 * t**3 + 66 * t**2 - 132 * t + 43)
        if (F(res["n1"]), F(res["n2"])) != (n1, n2):
            out.append("twin N1, N2 differ from the quartics")
        out += right_triangle_problems(res["triangle1"], n1, "triangle1")
        out += right_triangle_problems(res["triangle2"], n2, "triangle2")
    return out


def _tangent(inp, res):
    n = F(inp["n"])
    out = []
    for i, (tri, pt) in enumerate(zip(res["triangles"], res["points"])):
        out += right_triangle_problems(tri, n, f"chain triangle {i}")
        out += en_problems(pt, n, f"chain point {i}")
    pts = res["points"]
    for i in range(len(pts) - 1):
        if F(pts[i + 1]["x"]) != double_x(pts[i], n):
            out.append(f"chain point {i + 1} is not 2 * point {i}")
    if len(res["triangles"]) != inp["depth"]:
        out.append("chain length != depth")
    return out


def _recur(inp, res):
    m, n = inp["start_m"], inp["start_n"]
    out = []
    start = res["start"]
    if F(start["n"]) != m * n * (m * m - n * n):
        out.append("start N != mn(m^2-n^2)")
    out += right_triangle_problems(start["triangle"], F(start["n"]), "start")
    if len(res["steps"]) != len(inp["path"]):
        out.append("step count != path length")
    for i, step in enumerate(res["steps"]):
        big_n = F(step["n"])
        if big_n <= 0 or big_n.denominator != 1:
            out.append(f"step {i}: N is not a positive integer")
        out += right_triangle_problems(step["triangle"], big_n, f"step {i}")
    return out


def _seq(sub, inp, res):
    out = []
    if sub in ("fib", "cheb"):
        n = F(res["congruent_number"])
        if sub == "fib":
            k = inp["n"]
            if inp["odd"]:
                _, luc = lucas_fib(2 * k + 1)
                want = 2 * (luc * luc - 4) * luc
            else:
                want = 10 * lucas_fib(2 * k)[1]
        else:
            x = inp["k"]
            want = (x * x - 1) * chebyshev_t(inp["m"], x)
        if n != want:
            out.append(f"congruent number {n} != closed form {want}")
        out += right_triangle_problems(res["triangle"], n, "triangle")
        for i, pt in enumerate(res["points"]):
            out += en_problems(pt, n, f"point {i}")
        return out
    # brahmagupta
    t = 2 * chebyshev_t(inp["k"], 2)
    a, b, c = (F(v) for v in res["sides"])
    if (a, b, c) != (t - 1, t, t + 1):
        out.append("sides != (t-1, t, t+1) with t = 2 T_k(2)")
    p = F(res["semiperimeter"])
    area = F(res["area"])
    if p != (a + b + c) / 2 or area * area != p * (p - a) * (p - b) * (p - c):
        out.append("Heron's formula fails")
    ab, bc, ac = a * b, b * c, a * c
    coeffs = (ab + bc + ac, ab * bc + ab * ac + bc * ac, ab * bc * ac)
    curve = res["curve"]
    if tuple(F(curve[k]) for k in ("a2", "a4", "a6")) != coeffs:
        out.append("curve coefficients differ from (x+ab)(x+bc)(x+ac)")
    for i, pt in enumerate(res["points"]):
        out += cubic_problems(pt, *coeffs, f"point {i}")
    return out


def _fermat(inp, res):
    out = []
    nodes = res["nodes"]
    for node in nodes:
        a, b, c = int(F(node["a"])), int(F(node["b"])), int(F(node["c"]))
        if a * a + b * b != c * c or not is_square(c) or not is_square(a + b):
            out.append(f"node at depth {node['depth']} breaks the square invariants")
        if node["digits"] != len(str(abs(c))):
            out.append("digit count is wrong")
    if max(node["depth"] for node in nodes) != inp["depth"] and inp["depth"] > 0:
        out.append("tree does not reach the requested depth")
    small = res.get("smallest")
    if small is not None:
        a, b, c = (int(F(small[k])) for k in ("a", "b", "c"))
        if F(small["sum_root"]) ** 2 != a + b or F(small["hyp_root"]) ** 2 != c:
            out.append("smallest node's square witnesses are wrong")
    return out


def check_envelope(env):
    """Problems with one parsed ``--json`` envelope."""
    out = [f"check {c['name']!r} failed" for c in env["checks"] if not c["pass"]]
    command, _, sub = env["command"].partition(" ")
    inp, res = env["inputs"], env["results"]
    if command == "triples":
        out += _triples(inp, res)
    elif command == "conics":
        out += _conics(sub, inp, res)
    elif command == "cassini":
        out += right_triangle_problems(res["triangle"], F(inp["n"]), "triangle")
    elif command == "tangent":
        out += _tangent(inp, res)
    elif command == "footprints":
        if sub == "verify":
            if (res["rows"], res["failed"]) != (FOOTPRINT_ROWS, 0) and inp["table"] is None:
                out.append(f"table check rebuilt {res['rows']} rows with {res['failed']} failures")
        else:
            out += right_triangle_problems(res["triangle"], F(inp["n"]), "triangle")
    elif command == "recur":
        out += _recur(inp, res)
    elif command == "seq":
        out += _seq(sub, inp, res)
    elif command == "fermat":
        out += _fermat(inp, res)
    else:
        out.append(f"no oracle for command {env['command']!r}")
    return out


def check_gate(results):
    """Problems with a ``verify.run_all()`` result: 307 named, passing checks."""
    names = [(suite, name) for suite, checks in results.items() for name, _ in checks]
    failed = [f"{s}: {n}" for s, checks in results.items() for n, ok in checks if not ok]
    out = [f"check failed: {f}" for f in failed]
    if len(names) != GATE_CHECKS:
        out.append(f"{len(names)} checks, expected {GATE_CHECKS}")
    return out


def result_digits(value):
    """Most decimal digits in any integer numerator or denominator of a result."""
    if isinstance(value, dict):
        return max((result_digits(v) for v in value.values()), default=0)
    if isinstance(value, list):
        return max((result_digits(v) for v in value), default=0)
    if isinstance(value, bool) or value is None or isinstance(value, float):
        return 0
    if isinstance(value, int):
        return len(str(abs(value)))
    parts = [part.lstrip("-") for part in str(value).split("/")]
    return max(len(p) for p in parts) if all(p.isdigit() for p in parts) else 0
