"""Inputs, program calls and known-answer gates of the three workloads.

Every workload is a list of subjects.  A subject is one input: ``run``
calls coxlat through its public functions and returns the raw output, and
``check`` compares that output with answers computed in ``oracles``.  The
inputs depend only on the seed.

roster      the catalog plus 50 seeded random Fuchsian tuples, all four
            checks at order 200 (``coxlat verify --all --order 200``), plus
            negative controls: catalog Grams with one arm edge deleted.
rank_sweep  the Kleinian D_n ladder, all four checks at order 200.
query       a seeded sample of the Fuchsian triples with alpha <= 12, each
            through ``coxlat charpoly``, ``poincare`` and ``hilbert``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from coxlat import (
    Lattice,
    build,
    catalog,
    catalog_names,
    fuchsian_invariants,
    validate,
    verify_lattices,
)
from coxlat.cli import main as cli_main
from coxlat.star import lattices_from_minus
from coxlat.verify import suite_inputs

import oracles

DEFAULT_SEED = 271828       # coxlat's own suite seed; the roster then equals suite_inputs()
ORDER = 200
QUERY_ORDER = 1000
RANDOM_COUNT = 50
CONTROL_COUNT = 4
RUNGS = (16, 24, 32, 48, 64, 80)
QUERY_COUNT = 60
CHECKS = ("theorem", "orbit-series", "orbit-formulas", "identities")


@dataclass
class Subject:
    """One input.  ``checks`` is how many verdicts ``check`` returns on."""

    sid: str
    alphas: tuple
    run: Callable
    check: Callable     # output -> (failure messages, largest coefficient bit length, witness)
    checks: int
    control: bool = False

    @property
    def rank(self) -> int:
        """Rank of V_zero: the arm chains, the center E and E-u."""
        return sum(a - 1 for a in self.alphas) + 2


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _answer_bits(kind: str, alphas, order: int) -> int:
    deltas = oracles.star_deltas(alphas)
    return max(_bits(oracles.poincare(kind, alphas, order)),
               *(_bits(d) for d in deltas.values()))


# ---------------------------------------------------------------------------
# verify subjects (roster, rank_sweep)


def _verify_subject(sid: str, inv) -> Subject:
    kind, alphas = validate(inv).value, inv.alphas

    def run():
        return verify_lattices(build(inv), ORDER)

    def check(reports):
        if [r.check for r in reports] != list(CHECKS):
            return [f"{sid}: checks {[r.check for r in reports]}"] * len(CHECKS), 0, None
        failures = []
        for r in reports:
            order = 0 if r.check == "identities" else ORDER
            if not r.passed or r.witness is not None or r.order != order:
                failures.append(f"{sid}: {r.check} {r.passed} order={r.order} {r.witness}")
        return failures, _answer_bits(kind, alphas, ORDER), None

    return Subject(sid, alphas, run, check, len(CHECKS))


def _control_subject(name: str, arm: int, edge: int) -> Subject:
    """Catalog entry ``name`` with the edge (edge, edge+1) of arm ``arm`` deleted.

    The theorem check must fail, and its witness must name a coefficient
    where the divisor route gives the known count.
    """
    lats = build(catalog(name))
    gram = lats.minus.gram_rows()
    gram[edge][edge + 1] = gram[edge + 1][edge] = 0
    minus = Lattice(lats.minus.labels, tuple(tuple(row) for row in gram))
    inv, kind = lats.invariants, lats.kind
    alphas = inv.alphas
    sid = f"control:{name}-arm{arm}-edge{edge}"

    def run():
        return verify_lattices(lattices_from_minus(minus, inv, kind, lats.arms, lats.center), ORDER)

    def check(reports):
        theorem = reports[0]
        w = theorem.witness
        if theorem.check != "theorem" or theorem.passed or not w or type(w.get("index")) is not int:
            return [f"{sid}: theorem did not fail with a witness index: {theorem.to_json()}"], 0, None
        direct = oracles.poincare(kind.value, alphas, ORDER)
        k = w["index"]
        if not 0 <= k <= ORDER or w["expected"] != direct[k] or w["got"] == direct[k]:
            return [f"{sid}: witness {w} disagrees with the divisor count"], 0, w
        return [], _bits((w["expected"], w["got"])), w

    return Subject(sid, alphas, run, check, 1, control=True)


def random_fuchsian_alphas(rng: random.Random) -> list:
    """coxlat's rejection sampling of a Fuchsian tuple, r in {3,4,5}, alpha <= 12."""
    while True:
        arms = rng.choice((3, 4, 5))
        alphas = sorted(rng.randint(2, 12) for _ in range(arms))
        if sum(Fraction(1, a) for a in alphas) < arms - 2:
            return alphas


def fuchsian_tuples(arms: int, max_alpha: int = 12) -> list:
    """Every sorted Fuchsian tuple with this many arms and alpha <= max_alpha."""
    lcm = math.lcm(*range(2, max_alpha + 1))
    return [t for t in itertools.combinations_with_replacement(range(2, max_alpha + 1), arms)
            if sum(lcm // a for a in t) < (arms - 2) * lcm]


def _profile(alphas) -> tuple:
    return len(alphas), sum(alphas)


def _roster_positives(seed: int) -> list:
    """The catalog, then 50 random Fuchsian tuples.

    At the default seed the tuples are coxlat's own suite roster.  Any
    other seed replaces each of them by a random tuple with the same arm
    count and rank, so every seed asks for nearly the same work.
    """
    rng = random.Random(DEFAULT_SEED)
    tuples = [random_fuchsian_alphas(rng) for _ in range(RANDOM_COUNT)]
    if seed != DEFAULT_SEED:
        strata = {}
        for arms in {len(t) for t in tuples}:
            for t in fuchsian_tuples(arms):
                strata.setdefault(_profile(t), []).append(list(t))
        rng = random.Random(seed)
        tuples = [rng.choice(strata[_profile(t)]) for t in tuples]
    out = [(name, catalog(name)) for name in catalog_names()]
    for i, alphas in enumerate(tuples):
        out.append((f"random#{i + 1}:fuchsian({','.join(map(str, alphas))})",
                    fuchsian_invariants(alphas)))
    return out


def check_generator():
    """The roster at the default seed is exactly coxlat's own suite roster."""
    if _roster_positives(DEFAULT_SEED) != suite_inputs(RANDOM_COUNT, DEFAULT_SEED):
        raise RuntimeError("roster generator no longer reproduces coxlat.verify.suite_inputs()")


def roster(seed: int) -> list:
    subjects = [_verify_subject(sid, inv) for sid, inv in _roster_positives(seed)]
    edges = []
    for name in catalog_names():
        lats = build(catalog(name))
        for arm, (start, stop) in enumerate(lats.arms, start=1):
            edges.extend((name, arm, e) for e in range(start, stop - 1))
    rng = random.Random(seed)
    subjects.extend(_control_subject(*e) for e in rng.sample(edges, CONTROL_COUNT))
    return subjects


def rank_sweep(seed: int) -> list:
    rungs = list(RUNGS)
    random.Random(seed).shuffle(rungs)
    return [_verify_subject(f"D{n}", catalog(f"D{n}")) for n in rungs]


# ---------------------------------------------------------------------------
# query subjects


def _capture(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _query_subject(alphas) -> Subject:
    text = ",".join(map(str, alphas))
    sid = f"fuchsian({text})"
    order = str(QUERY_ORDER)
    argvs = (
        ["charpoly", "--fuchsian", text, "--format", "json"],
        ["poincare", "--fuchsian", text, "--route", "both", "--order", order, "--format", "json"],
        ["hilbert", "--fuchsian", text, "--series", "both", "--order", order, "--format", "json"],
    )

    def run():
        return [_capture(argv) for argv in argvs]

    def check(outputs):
        direct = oracles.fuchsian_counts(alphas, QUERY_ORDER)
        p_series = [c - (k == 1) for k, c in enumerate(direct)]
        expected = (
            oracles.star_deltas(alphas),
            {"direct": {"order": QUERY_ORDER, "coeffs": direct},
             "quotient": {"order": QUERY_ORDER, "coeffs": direct}},
            {"P": {"order": QUERY_ORDER, "coeffs": p_series},
             "Q": {"order": QUERY_ORDER, "coeffs": oracles.kleinian_counts(alphas, QUERY_ORDER)}},
        )
        failures, bits = [], 0
        for argv, (code, out), want in zip(argvs, outputs, expected):
            try:
                got = json.loads(out)
            except ValueError:
                got = None
            if code != 0 or got != want:
                failures.append(f"{sid}: {argv[0]} exit {code}, output differs from the known answer")
                continue
            for value in got.values():
                bits = max(bits, _bits(value["coeffs"] if isinstance(value, dict) else value))
        return failures, bits, None

    return Subject(sid, tuple(alphas), run, check, len(argvs))


def query(seed: int) -> list:
    """QUERY_COUNT Fuchsian triples with a fixed rank profile.

    The profile takes one rank from each of QUERY_COUNT equal slices of the
    rank-sorted triples; the seed picks which triples of each rank, so
    every seed asks for nearly the same work.
    """
    triples = sorted(fuchsian_tuples(3), key=sum)
    profile = Counter(sum(triples[(2 * i + 1) * len(triples) // (2 * QUERY_COUNT)])
                      for i in range(QUERY_COUNT))
    rng = random.Random(seed)
    chosen = []
    for total, count in sorted(profile.items()):
        chosen.extend(rng.sample([t for t in triples if sum(t) == total], count))
    return [_query_subject(t) for t in chosen]


def make(workload: str, seed: int) -> list:
    return {"roster": roster, "rank_sweep": rank_sweep, "query": query}[workload](seed)


def check_times(output) -> dict:
    """Seconds per check name, as the program's own reports give them."""
    out = {}
    if isinstance(output, list):
        for r in output:
            if hasattr(r, "elapsed"):
                out[r.check] = out.get(r.check, 0.0) + r.elapsed
    return out
