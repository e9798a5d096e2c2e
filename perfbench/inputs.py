"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed design: which public functions run, in which
parameter regions, and how many ops fall in each region (a stratum).
The seed draws the concrete values inside every stratum from a narrow
pool, so two seeds give different inputs of about the same cost.  That
keeps run-to-run spread low without thinning any region out.

The workload functions take the imported ``qeuler`` package as an
argument and never import it themselves: importing the package is part
of the measured set-up time.  An :class:`Op` holds only data; the runner looks
the function up by name when it calls it, so the traced run can swap in
wrapped functions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("exact-routes", "padic-stages", "series-grid", "cli-e2e")

# The golden `table` invocations pinned by tests/golden/*.csv.
GOLDEN_TABLES = (
    ("table_qeuler.csv",
     ["table", "qeuler", "--q", "1/2", "--m", "0..6", "--exact", "--format", "csv"]),
    ("table_classical.csv", ["table", "classical", "--k", "1", "--m", "0..5"]),
    ("table_zeta.csv", ["table", "zeta", "--q", "1/2", "--s-grid", "-3..0", "--exact"]),
)


@dataclass(frozen=True)
class Op:
    """One public call: ``fn`` on the ``qeuler`` package (or ``cli.main``
    when ``cli`` is set, with ``args == (argv,)``).

    Ops sharing a ``group`` are checked together: two routes that must
    agree, or a partition that must add up.  ``expect`` carries what the
    check needs beyond the arguments (a reference value, golden bytes).
    """

    fn: str
    args: tuple
    group: str
    cli: bool = False
    expect: object = None

    def label(self):
        if self.cli:
            return "qeuler " + " ".join(self.args[0])
        return f"{self.fn}{_fmt_args(self.args)}"


def _fmt_args(args):
    return "(" + ", ".join(_fmt(a) for a in args) + ")"


def _fmt(a):
    if isinstance(a, Fraction):
        return str(a)
    if type(a).__name__ == "Integrand":
        return f"moment({a.terms[0].bracket_power})"
    if type(a).__name__ == "PAdicQParam":
        return f"p={a.p},q={a.q}"
    if type(a).__name__ == "DirichletCharacter":
        return f"chi{a.modulus}:{a.index}"
    return repr(a)


def canonical(ops):
    """The inputs of a workload as bytes: equal seeds give equal bytes."""
    rows = [[op.fn, op.label(), op.group, repr(op.expect)] for op in ops]
    return json.dumps(rows, separators=(",", ":")).encode()


class InputGenerator:
    """Draws parameter values for one (workload, seed) pair."""

    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}/{seed}")

    def pick(self, pool):
        return pool[self.rng.randrange(len(pool))]

    def int_in(self, lo, hi):
        return self.rng.randint(lo, hi)

    def shuffled(self, values):
        return self.rng.sample(values, len(values))

    def strata(self, lo, hi, k):
        """k integers, one from each of k equal slices of [lo, hi]."""
        edges = [lo + (hi - lo + 1) * i // k for i in range(k + 1)]
        return [self.rng.randint(edges[i], edges[i + 1] - 1) for i in range(k)]

    def near_one_q(self):
        """(n-1)/n with n near 10**4: distance 1e-4 to 1, ~28-bit height."""
        n = self.int_in(9_995, 10_005)
        return Fraction(n - 1, n)

    def uniform(self, lo, hi, digits=3):
        return round(self.rng.uniform(lo, hi), digits)

    def jitter(self, centre, width, digits=3):
        return self.uniform(centre - width, centre + width, digits)

    def seed_int(self):
        return self.rng.randrange(1_000_000)


# ---------------------------------------------------------------------------
# exact-routes

HALF, TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)


def _exact_routes(g, Q):
    ops = []

    def pair(group, a, b):
        ops.append(Op(a[0], a[1], group))
        ops.append(Op(b[0], b[1], group))

    # Closed form vs terminating continuation.  q near 1 makes the largest
    # Fractions, so these pairs are the heaviest ops of the workload.
    for i, m in enumerate(g.strata(142, 150, 4)):
        q = g.near_one_q()
        pair(f"zeta-near1-{i}", ("qeuler_higher", (m, 1, q)), ("euler_zeta_neg_int_exact", (m, q)))
    for i, m in enumerate(g.strata(126, 150, 4)):
        q = (HALF, TWO_THIRDS)[i % 2]
        pair(f"zeta-small-{i}", ("qeuler_higher", (m, 1, q)), ("euler_zeta_neg_int_exact", (m, q)))
    for i, m in enumerate(g.strata(36, 44, 2)):
        q = g.near_one_q() if i else TWO_THIRDS
        pair(f"zeta-mid-{i}", ("qeuler_higher", (m, 1, q)), ("euler_zeta_neg_int_exact", (m, q)))

    # Higher order k = 2, 3: checked against the multinomial expansion.
    for i, m in enumerate(g.strata(16, 20, 4)):
        q = (HALF, TWO_THIRDS)[i] if i < 2 else g.near_one_q()
        ops.append(Op("qeuler_higher", (m, 2 + i % 2, q), f"order-k-{i}"))

    # Polynomial values vs the Hurwitz continuation at x = a/d.
    for i, m in enumerate(g.strata(56, 64, 4)):
        d = (1, 3, 5, 3)[i]
        args = (m, TWO_THIRDS, d, g.int_in(1, 2 * d))
        pair(f"poly-{i}", ("qeuler_poly_exact", args), ("hurwitz_neg_int_exact", args))

    # Twisted numbers vs the L-decomposition, real and complex characters.
    for d, m in ((15, 10), (45, 8), (105, 6)):
        chars = Q.characters_mod(d)
        for kind, r, pool in (("real", TWO_THIRDS, [c for c in chars if c.order == 2]),
                              ("complex", HALF, [c for c in chars if c.order > 2])):
            args = (m, g.pick(pool), r)
            pair(f"twist-{d}-{kind}", ("generalized_qeuler", args), ("l_neg_int_decomposition", args))

    # Partial zeta values over a = 1..F add up to the full value.  The three
    # F = 15 groups (48 ops of about equal cost) sit in the middle of the
    # workload's cost order, so op_p50_ms falls inside a dense cluster; the
    # seed deals them n = 24, 25, 26 in some order.
    n15 = g.shuffled((24, 25, 26))
    for i, (F, n, r) in enumerate(((3, 25, None), (5, 19, HALF), (15, n15[0], TWO_THIRDS),
                                   (15, n15[1], TWO_THIRDS), (15, n15[2], TWO_THIRDS))):
        r = r or g.near_one_q()
        group = f"partition-F{F}-{i}"
        for a in range(1, F + 1):
            ops.append(Op("partial_zeta_neg_int_exact", (n, a, F, r), group))
        ops.append(Op("euler_zeta_neg_int_exact", (n, r), group))

    # Distribution and multiplication identities: residuals exactly 0.
    for i, d in enumerate((3, 5, 3)):
        ops.append(Op("distribution_residual", (g.int_in(6, 8), d, g.int_in(0, 3), TWO_THIRDS),
                      f"residual-dist-{i}"))
        ops.append(Op("multiplication_residual_x0", (g.int_in(6, 8), d, HALF), f"residual-mult-{i}"))
    return ops


# ---------------------------------------------------------------------------
# padic-stages

_P_POOLS = {
    # q = 1 mod p in pairs {q, 1/q} and {a/b, b/a}: the two members of a pair
    # make Fractions of the same size, so a stage sum costs the same for either.
    3: ((Fraction(4), Fraction(1, 4)), (Fraction(4, 7), Fraction(7, 4))),
    5: ((Fraction(6), Fraction(1, 6)), (Fraction(6, 11), Fraction(11, 6))),
    7: ((Fraction(8), Fraction(1, 8)), (Fraction(8, 15), Fraction(15, 8))),
}


def _padic_stages(g, Q):
    ops = []

    def report(p, q, m, n_max, tag):
        args = (Q.Integrand.moment(m), Q.PAdicQParam(p, q), n_max, Q.qeuler_higher(m, 1, q))
        ops.append(Op("convergence_report", args, f"report-{tag}"))

    # Heaviest tier, pinned so the latency tail is the same work for every
    # seed: p^N = 2187 at m = 1, and the k = 3 convolution at p^N = 81.
    report(3, Fraction(4), 1, 7, "p3-N7-a")
    report(3, Fraction(7), 1, 7, "p3-N7-b")
    ops.append(Op("higher_order_stage", (2, 3, Q.PAdicQParam(3, Fraction(4)), 4), "stage-p3-N4-k3"))
    for p, levels in ((3, ((6, 3), (5, 2))), (5, ((4, 2), (3, 3))), (7, ((3, 2), (2, 3)))):
        for n_max, m in levels:
            for kind, pool in zip(("int", "frac"), _P_POOLS[p]):
                report(p, g.pick(pool), m, n_max, f"p{p}-N{n_max}-{kind}")
    # Sixteen small reports of one cost class: the middle of the cost order,
    # so op_p50_ms falls inside a dense cluster.
    for i in range(16):
        report(5, g.pick(_P_POOLS[5][0]), 2, 3, f"p5-N3-block-{i}")
    # The convolution costs differ between q and 1/q, so q is pinned here
    # and the seed draws m.
    for p, N_levels in ((3, (2, 3, 4)), (5, (2,)), (7, (2,))):
        ctx = Q.PAdicQParam(p, Fraction(p + 1))
        for N in N_levels:
            for k in (1, 2, 3):
                if (p, N, k) != (3, 4, 3):
                    ops.append(Op("higher_order_stage", (g.int_in(2, 3), k, ctx, N),
                                  f"stage-p{p}-N{N}-k{k}"))
    return ops


# ---------------------------------------------------------------------------
# series-grid
#
# A fixed grid of (family, q stratum, region of s); the seed jitters q and s
# around per-cell centres and draws the character and the negative integers.
# The two largest q are pinned.  Cells at Re(s) <= 0 or q = 0.999 hold the
# float defects of ROADMAP item 1 (rounding error missing from the reported
# bound, cancellation near q = 1, non-convergence at q = 0.999): they go to
# the known-defect probe, which every run evaluates and reports untimed,
# so a fix shows there.  The timed cells are the rest of the grid.
# The jitter is narrow (q by 0.003, s by 0.02) because the number of series
# terms, and with it an op's cost, follows q and s closely.

_Q_CENTRES = (0.31, 0.6, 0.9, 0.99, 0.999)
_S_CENTRES = {
    "re>=1": (1.25, 1.5, 1.75, 2.0, 2.5),
    "re>=1-complex": (1.25, 1.5, 1.75, 2.0, 2.5),
    "0<re<1": (0.3, 0.4, 0.5, 0.6, 0.7),
    "neg-nonint": (-1.5, -4.3, -6.7, -9.2, -11.6),
}
_IM_CENTRES = (0.5, 1.0, 1.5, 2.0, 1.0)
_NEG_ANCHORS = (-2.5, -8.0001, complex(-3.5, 1))
_HURWITZ_X = (1 / 3, 1.0, 2.5)
_PARTIAL_F = (3, 5, 15)


def known_defect_region(s, q):
    """True where the float series of ROADMAP item 1 are known to fail."""
    return complex(s).real <= 0 or q >= 0.999


def _series_grid(g, Q):
    ops, probe = [], []
    # chi(n) adds one Fraction per prime factor on which the character is
    # non-trivial, and orders other than 1, 2 and 4 go through cmath.exp, so
    # the draws are from the primitive characters of the largest order (mod
    # 15: order 4; mod 105: order 12).  Then chi(n) costs the same for every
    # draw, and so does the heaviest timed op (l_series_direct at q = 0.99).
    chars = {d: [c for c in Q.characters_mod(d) if all(c.exponents) and c.order == order]
             for d, order in ((15, 4), (105, 12))}
    for fam_i, family in enumerate(("euler", "hurwitz", "lseries", "partial")):
        for q_i, centre in enumerate(_Q_CENTRES):
            q = g.jitter(centre, 0.003) if q_i < 3 else centre
            c = (q_i + fam_i) % 5
            s_points = [
                ("re>=1", g.jitter(_S_CENTRES["re>=1"][c], 0.02)),
                ("re>=1-complex", complex(g.jitter(_S_CENTRES["re>=1-complex"][c], 0.02),
                                          g.pick((-1, 1)) * g.jitter(_IM_CENTRES[c], 0.02))),
                ("0<re<1", g.jitter(_S_CENTRES["0<re<1"][c], 0.02)),
                ("neg-anchor", _NEG_ANCHORS[(q_i + fam_i) % 3]),
                ("neg-nonint", g.jitter(_S_CENTRES["neg-nonint"][c], 0.02)),
                ("neg-int-low", float(-g.int_in(7, 12))),
                ("neg-int-high", float(-g.int_in(1, 6))),
            ]
            for pos, (s_kind, s) in enumerate(s_points):
                slot = q_i * len(s_points) + pos
                if family == "euler":
                    fn, extra = "euler_zeta_q", ()
                elif family == "hurwitz":
                    fn, extra = "hurwitz_zeta_q", (_HURWITZ_X[slot % 3],)
                elif family == "lseries":
                    fn, extra = "l_series", (g.pick(chars[(15, 105)[slot % 2]]),)
                else:
                    # The residue a sets the decay rate q^(a j), so it follows
                    # the slot rather than the seed.
                    F = _PARTIAL_F[slot % 3]
                    fn, extra = "partial_zeta", (slot % F + 1, F)
                group = f"{family}-q{q_i}-{s_kind}"
                dest = probe if known_defect_region(s, q) else ops
                dest.append(Op(fn, (s, *extra, q), group))
                if s_kind.startswith("re>=1"):
                    dest.append(Op(fn + "_direct", (s, *extra, q), group))
    return ops, probe


# ---------------------------------------------------------------------------
# cli-e2e


def _cli_e2e(g, Q, root):
    ops, probe = [], []

    def cli(group, argv, expect=None, dest=ops):
        dest.append(Op("main", (tuple(argv),), group, cli=True, expect=expect))

    # `verify all` is the heaviest op here: four per cycle put at least ten
    # of them beyond the latency tail and average over their seeded inputs.
    for i in range(4):
        cli(f"verify-{i}", ["verify", "all", "--seed", str(g.seed_int())])
    for name, argv in GOLDEN_TABLES:
        cli(f"golden-{name}", argv, expect=(root / "tests" / "golden" / name).read_bytes())

    # Eight eval functions, about three calls each.  Float evals stay where
    # ROADMAP item 1 finds no defect: closed forms at q <= 0.6, continuations
    # at Re(s) > 0.  The known-defect probe holds the pinned
    # `qeuler --m 8 --q 0.99` (a wrong value printed with exit code 0) and a
    # continuation at negative s for each series family.
    cli("eval-qeuler-float-0.99", ["eval", "qeuler", "--m", "8", "--q", "0.99"], dest=probe)
    q = g.pick(("1/2", "2/3", "1/3"))
    cli("eval-qeuler-exact", ["eval", "qeuler", "--m", str(g.int_in(5, 30)), "--k",
                              str(g.int_in(1, 3)), "--q", q, "--exact"])
    cli("eval-qeuler-float", ["eval", "qeuler", "--m", str(g.int_in(2, 8)), "--q",
                              repr(g.uniform(0.2, 0.6))])
    r, d = g.pick(((Fraction(1, 2), 3), (Fraction(2, 3), 2), (Fraction(1, 3), 3)))
    a = g.int_in(1, 2 * d)
    cli("eval-poly-exact", ["eval", "qeuler-poly", "--m", str(g.int_in(3, 12)), "--q",
                            str(r**d), "--x", f"{a}/{d}", "--exact"])
    cli("eval-poly-float", ["eval", "qeuler-poly", "--m", str(g.int_in(2, 6)), "--q",
                            repr(g.uniform(0.2, 0.6)), "--x", repr(g.uniform(0.1, 2.0))])
    cli("eval-poly-float-b", ["eval", "qeuler-poly", "--m", str(g.int_in(2, 6)), "--q",
                              repr(g.uniform(0.2, 0.6)), "--x", f"{g.int_in(1, 4)}/3"])
    for i in range(3):
        cli(f"eval-classical-{i}", ["eval", "classical", "--m", str(g.int_in(0, 20)),
                                    "--k", str(g.int_in(1, 3))])
    for i in range(3):
        cli(f"eval-stage-{i}", ["eval", "integral-stage", "--m", str(g.int_in(1, 4)), "--k",
                                str(g.int_in(1, 2)), "--p", "3", "--q", g.pick(("4", "7", "4/7")),
                                "--N", "2"])
    cli("eval-zeta-cont", ["eval", "zeta", "--s", repr(g.uniform(0.1, 3.0)), "--q",
                           repr(g.uniform(0.3, 0.8))])
    cli("eval-zeta-cont-neg", ["eval", "zeta", "--s", repr(g.uniform(-6.0, -0.1)), "--q",
                               repr(g.uniform(0.3, 0.8))], dest=probe)
    s = f"{g.uniform(1.0, 3.0)!r},{g.uniform(-1.0, 1.0)!r}"
    cli("eval-zeta-direct", ["eval", "zeta", "--s", s,
                             "--q", repr(g.uniform(0.3, 0.8)), "--method", "direct"])
    cli("eval-zeta-exact", ["eval", "zeta", "--s", str(-g.int_in(0, 12)), "--q",
                            g.pick(("1/2", "2/3", "9999/10000")), "--exact"])
    cli("eval-hurwitz-cont", ["eval", "hurwitz", "--s", repr(g.uniform(0.1, 3.0)), "--x",
                              g.pick(("1/3", "1", "5/2")), "--q", repr(g.uniform(0.3, 0.8))])
    cli("eval-hurwitz-cont-neg", ["eval", "hurwitz", "--s", repr(g.uniform(-4.0, -0.1)), "--x",
                                  g.pick(("1/3", "1", "5/2")), "--q", repr(g.uniform(0.3, 0.8))],
        dest=probe)
    cli("eval-hurwitz-direct", ["eval", "hurwitz", "--s", repr(g.uniform(1.0, 3.0)), "--x",
                                g.pick(("1/3", "1", "5/2")), "--q", repr(g.uniform(0.3, 0.8)),
                                "--method", "direct"])
    cli("eval-hurwitz-exact", ["eval", "hurwitz", "--s", str(-g.int_in(1, 10)), "--x", "2/3",
                               "--q", g.pick(("1/8", "8/27", "27/64")), "--exact"])
    d = g.pick((3, 5, 15))
    phi = len(Q.characters_mod(d))
    cli("eval-lseries-cont", ["eval", "lseries", "--s", repr(g.uniform(0.1, 3.0)), "--char",
                              f"{d}:{g.int_in(0, phi - 1)}", "--q", repr(g.uniform(0.3, 0.7))])
    cli("eval-lseries-cont-neg", ["eval", "lseries", "--s", repr(g.uniform(-3.0, -0.1)),
                                  "--char", f"{d}:{g.int_in(0, phi - 1)}", "--q",
                                  repr(g.uniform(0.3, 0.7))], dest=probe)
    cli("eval-lseries-direct", ["eval", "lseries", "--s", repr(g.uniform(1.0, 3.0)), "--char",
                                f"{d}:{g.int_in(0, phi - 1)}", "--q", repr(g.uniform(0.3, 0.7)),
                                "--method", "direct"])
    real = [c.index for c in Q.characters_mod(d) if c.order <= 2]
    cli("eval-lseries-exact", ["eval", "lseries", "--s", str(-g.int_in(1, 6)), "--char",
                               f"{d}:{g.pick(real)}", "--q", g.pick(("1/2", "2/3")), "--exact"])
    F = g.pick((3, 5, 15))
    cli("eval-partial-cont", ["eval", "partial", "--s", repr(g.uniform(0.1, 3.0)), "--a",
                              str(g.int_in(1, F)), "--F", str(F), "--q", repr(g.uniform(0.3, 0.8))])
    cli("eval-partial-cont-neg", ["eval", "partial", "--s", repr(g.uniform(-3.0, -0.1)), "--a",
                                  str(g.int_in(1, F)), "--F", str(F), "--q",
                                  repr(g.uniform(0.3, 0.8))], dest=probe)
    cli("eval-partial-direct", ["eval", "partial", "--s", repr(g.uniform(1.0, 3.0)), "--a",
                                str(g.int_in(1, F)), "--F", str(F), "--q", repr(g.uniform(0.3, 0.8)),
                                "--method", "direct"])
    cli("eval-partial-exact", ["eval", "partial", "--s", str(-g.int_in(1, 8)), "--a",
                               str(g.int_in(1, F)), "--F", str(F), "--q",
                               g.pick(("1/2", "2/3")), "--exact"])
    return ops, probe


def build(workload, seed, Q, root):
    """``(ops, probe)`` for ``workload`` and ``seed``: the ops of one timed
    cycle, and the known-defect probe (ops in the regions where ROADMAP
    item 1 finds wrong float values; empty for the exact workloads).

    ``Q`` is the imported ``qeuler`` package; ``root`` the checkout root,
    whose ``tests/golden`` holds the tables the CLI workload compares.
    """
    g = InputGenerator(workload, seed)
    if workload == "exact-routes":
        return _exact_routes(g, Q), []
    if workload == "padic-stages":
        return _padic_stages(g, Q), []
    if workload == "series-grid":
        return _series_grid(g, Q)
    if workload == "cli-e2e":
        return _cli_e2e(g, Q, Path(root))
    raise ValueError(f"unknown workload {workload!r}")
