"""Op pools and seeded op lists for the benchmark workloads.

An op is one call: either ``verify.run_all()`` (the ``gate`` workload) or
``congruent.cli.main(argv)`` with ``--json`` appended.  Candidate ops are
enumerated here from each command's valid domain, grouped into strata of
similar cost.  ``make_pool.py`` runs every candidate once on the reference
commit and stores the survivors with the digest of their output in
``pool.json``; a seed then picks a fixed number of ops from every stratum,
so that every seed gets the same mix of commands and sizes and only the
variants and their order change.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

POOL_PATH = Path(__file__).with_name("pool.json")

GATE_KEY = "verify.run_all()"

# Seed triangles (N, a, b) of area N that start tangent chains: the
# smallest rows of the shipped footprint table plus the (3, 4, 5) triangle.
TANGENT_SEEDS = (
    (5, "3/2", "20/3"),
    (6, "3", "4"),
    (13, "323/30", "780/323"),
    (29, "99/910", "52780/99"),
    (41, "123/20", "40/3"),
    (109, "2077/210", "45780/2077"),
    (149, "73917/5950", "1773100/73917"),
    (313, "1565/156", "312/5"),
    (353, "5295/136", "272/15"),
    (509, "81021/2210", "2249780/81021"),
    (709, "200099/3570", "5062260/200099"),
)

# Inputs the reference commit cannot serve; the "defects" workload runs them
# to show the failure accounting.  cli and growth hold no failing op, and
# growth stops below these sizes (and far below the inputs that run past
# 20 s: fermat --depth 9, 20-step recur walks).
DEFECTS = (
    # uncaught ValueError: a step exceeds the 4300-digit int-to-str limit
    "recur walk --start-m 2 --start-n 1 --path aaaaaaaaaaaaaa",
    # exit 3: a node exceeds the 4300-digit int-to-str limit
    "fermat --depth 7",
    # uncaught AssertionError from lattice_secondary
    "conics lattice --m 3 --n 2 --t 5/3",
    # uncaught TypeError from factorize after a few seconds
    "conics lattice --m 7 --n 2 --t 1234567/101",
)


# Ops per pass drawn from each stratum.  The counts fix the mix, so run_s
# does not depend on which variants a seed picks.  They also put op_p50_ms
# and op_p90_ms inside strata of near-uniform cost rather than on the edge
# between a cheap and a dear stratum, where a seed or a little noise could
# move them.  In growth, op_p50_ms falls inside the recur walks of length 8
# and 10 (every variant, those of length 8 twice) and op_p90_ms on
# brahmagupta-50.
PASS_COUNTS = {
    "gate": {"gate": 1},
    "cli": {
        "readme": 9,
        "triples": 12,
        "conics-intersect": 9,
        "conics-twin": 9,
        "conics-lattice": 6,
        "conics-lattice-t": 8,
        "conics-triangle": 6,
        "cassini": 6,
        "footprints-triangle": 12,
        "tangent": 12,
        "recur": 12,
        "seq-fib": 6,
        "seq-cheb": 6,
        "seq-brahmagupta": 6,
        "fermat": 6,
    },
    "defects": {"defects": len(DEFECTS)},
    "growth": {
        "recur-8": 16,
        "recur-10": 8,
        "fermat-5": 2,
        "tangent-4": 2,
        "tangent-5": 1,
        "recur-12": 1,
        "fermat-6": 1,
        "brahmagupta-25": 1,
        "brahmagupta-50": 1,
        "brahmagupta-100": 2,
        "brahmagupta-200": 1,
    },
}

README_EXAMPLES = (
    "triples --m 2 --n 1",
    "conics intersect --t 3",
    "conics triangle --n 157 --f1 87005 --f2 610961",
    "cassini two --n 29 --f1 1 --f2 -13 --emit-curve 64",
    "tangent --n 5 --a 3/2 --b 20/3 --depth 3",
    "footprints verify",
    "recur walk --start-m 2 --start-n 1 --path abba",
    "seq brahmagupta --k 3",
    "fermat --depth 4 --find-smallest",
)


def _arg(name, value):
    # "--t=-3/5": argparse would read a bare "-3/5" as an option
    return f"--{name}={value}"


def _small_rationals(max_num, max_den):
    out = []
    for q in range(1, max_den + 1):
        for p in range(-max_num, max_num + 1):
            if p and gcd(p, q) == 1:
                out.append(Fraction(p, q))
    return out


def _euclid_pairs(max_m):
    return [
        (m, n)
        for m in range(2, max_m + 1)
        for n in range(1, m)
        if gcd(m, n) == 1 and (m - n) % 2
    ]


def _paths(rng, length, count):
    return sorted({"".join(rng.choice("ab") for _ in range(length)) for _ in range(count)})


def footprint_rows(src):
    text = (Path(src) / "congruent" / "data" / "footprint_tables.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(line.split())
    return rows


def candidates(src):
    """Every candidate op, as {workload: {stratum: [argv string, ...]}}."""
    rng = random.Random(20211217)
    rows = footprint_rows(src)
    ts = _small_rationals(6, 4)

    def tangent(depth):
        return [
            f"tangent {_arg('n', n)} {_arg('a', a)} {_arg('b', b)} {_arg('depth', depth)}"
            for n, a, b in TANGENT_SEEDS
        ]

    def recur(length, count, pairs):
        return [
            f"recur walk {_arg('start-m', m)} {_arg('start-n', n)} {_arg('path', p)}"
            for m, n in pairs
            for p in _paths(rng, length, count)
        ]

    cli = {
        "readme": list(README_EXAMPLES),
        "triples": [f"triples {_arg('m', m)} {_arg('n', n)}" for m, n in _euclid_pairs(16)],
        "conics-intersect": [f"conics intersect {_arg('t', t)}" for t in ts if t != Fraction(1, 2)],
        "conics-twin": [f"conics twin {_arg('t', t)}" for t in ts],
        "conics-lattice": [
            f"conics lattice {_arg('m', m)} {_arg('n', n)}"
            for m in range(1, 7)
            for n in range(1, 7)
            if gcd(m, n) == 1
        ],
        "conics-lattice-t": [
            f"conics lattice {_arg('m', m)} {_arg('n', n)} {_arg('t', t)}"
            for m, n in ((1, 2), (2, 1), (2, 3), (3, 2), (1, 4), (4, 1))
            for t in _small_rationals(4, 3)
        ],
        "conics-triangle": [
            f"conics triangle {_arg('n', n)} {_arg('f1', m)} {_arg('f2', k)}"
            for n, m, k, cls in rows
            if cls == "TI" and max(abs(int(m)), abs(int(k))) < 10**4
        ],
        "cassini": [
            f"cassini two {_arg('n', n)} {_arg('f1', m)} {_arg('f2', k)}"
            for n, m, k, cls in rows
            if cls == "TI" and int(n) < 600
        ]
        + [
            "cassini four --n=79 --f1=125 --f2=52",
            "cassini two --n=62 --f1=20 --f2=7 --adjoin=sqrt2N",
            "cassini two --n=79 --f1=125 --f2=52 --adjoin=sqrtN",
        ],
        "footprints-triangle": [
            f"footprints triangle {_arg('n', n)} {_arg('m', m)} {_arg('k', k)} {_arg('cls', cls)}"
            for n, m, k, cls in rows
        ],
        "tangent": [op for d in (1, 2, 3) for op in tangent(d)],
        "recur": [op for n in range(1, 9) for op in recur(n, 2, _euclid_pairs(7))],
        "seq-fib": [
            f"seq fib {_arg('n', n)}{' --odd' if odd else ''}"
            for n in range(1, 25)
            for odd in (False, True)
        ],
        "seq-cheb": [
            f"seq cheb {_arg('m', m)} {_arg('k', k)}" for m in range(1, 9) for k in range(2, 10)
        ],
        "seq-brahmagupta": [f"seq brahmagupta {_arg('k', k)}" for k in range(0, 13)],
        "fermat": [
            f"fermat {_arg('depth', d)}{' --find-smallest' if fs else ''}"
            for d in range(1, 6)
            for fs in (False, True)
        ],
    }
    growth = {
        "tangent-4": tangent(4),
        "tangent-5": tangent(5),
        "fermat-5": ["fermat --depth=5", "fermat --depth=5 --find-smallest"],
        "fermat-6": ["fermat --depth=6", "fermat --depth=6 --find-smallest"],
        # from (2, 1): larger starts pass the 4300-digit limit by length 12
        "recur-8": recur(8, 8, [(2, 1)]),
        "recur-10": recur(10, 8, [(2, 1)]),
        "recur-12": recur(12, 8, [(2, 1)]),
        # one k per size: the cost of neighbouring k differs by up to 15%
        **{f"brahmagupta-{k}": [f"seq brahmagupta {_arg('k', k)}"] for k in (25, 50, 100, 200)},
    }
    return {
        "gate": {"gate": [GATE_KEY]},
        "cli": cli,
        "growth": growth,
        "defects": {"defects": list(DEFECTS)},
    }


def load_pool(path=POOL_PATH):
    with open(path) as fh:
        return json.load(fh)


def op_list(workload, seed, pool):
    """The seeded op list of one pass: [(stratum, op key, digest), ...]."""
    rng = random.Random(f"{workload}:{seed}")
    strata = pool["workloads"][workload]
    ops = []
    for stratum, count in PASS_COUNTS[workload].items():
        entries = strata[stratum]
        keys = sorted(entries)
        # without replacement, going round again when a stratum is short
        picks = [k for _ in range(-(-count // len(keys))) for k in rng.sample(keys, len(keys))]
        ops += [(stratum, key, entries[key]["digest"]) for key in picks[:count]]
    rng.shuffle(ops)
    return ops
