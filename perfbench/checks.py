"""Correctness checks for the benchmark's ops, run after the timed passes.

Every check compares an op's output with an independent route:

* exact-routes: the two library routes the paper says agree must be
  exactly equal (complex-character L-values to 1e-12), residuals must be
  exactly 0, and order-k numbers must equal the multinomial expansion of
  the k-fold integral, written here.
* padic-stages: v_p(S_N - E_m^(k)(q)) >= N at every stage, with the
  reference from the multinomial expansion and v_p computed here.
* series-grid: exact rationals at negative integers for the zeta,
  Hurwitz (integer x) and partial families, from the library's exact
  route at Fraction(q); elsewhere mpmath at >= 30 digits.  L-values use
  mpmath throughout: the exact route at a 53-bit Fraction(q) takes up to
  a minute at modulus 105.
  An op fails when |value - oracle| > abs_error_estimate + eps*max(1, |oracle|).
* cli-e2e: golden tables byte-identical, ``verify`` exit code 0, and each
  ``eval`` record equal to the library value under the same rule.

``mpmath`` is imported lazily, so it never touches set-up time, peak
memory of the timed pass, or any timing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

EPS = 1e-12  # PrecisionPolicy().eps, the CLI's --eps default
COMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class Raised:
    """An op that raised instead of returning."""

    kind: str
    message: str

    @classmethod
    def of(cls, exc):
        return cls(type(exc).__name__, str(exc))


@dataclass(frozen=True)
class CliResult:
    rc: int
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# Exact helpers written independently of the library.


def vp(r, p):
    """p-adic valuation of a rational; math.inf at 0."""
    r = Fraction(r)
    if r == 0:
        return math.inf
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _axis_limit(a, b, q):
    """lim_N S_N([x]^a q^(b x)) = (1+q)(1-q)^-a sum_i C(a,i)(-1)^i / (1 + q^(i+b+1))."""
    return (1 + q) / (1 - q) ** a * sum(
        (Fraction((-1) ** i * comb(a, i)) / (1 + q ** (i + b + 1)) for i in range(a + 1)),
        Fraction(0),
    )


def _compositions(m, k):
    if k == 1:
        yield (m,)
        return
    for a in range(m + 1):
        for rest in _compositions(m - a, k - 1):
            yield (a, *rest)


def higher_order_multinomial(m, k, q):
    """E_m^(k)(q) from the k-fold integral of [x_1+...+x_k]^m q^(-sum (m+t) x_t).

    [x + y] = [x] + q^x [y] expands the integrand into products of
    one-axis integrands [x_t]^(a_t) q^(b_t x_t), each of which has the
    closed-form limit above.  This is a different route from the
    library's closed form, which expands [x_1+...+x_k]^m in q^(i x).
    """
    q = Fraction(q)
    memo = {}
    total = Fraction(0)
    for parts in _compositions(m, k):
        term = Fraction(factorial(m))
        rest = m
        for t, a in enumerate(parts, start=1):
            term /= factorial(a)
            rest -= a
            key = (a, rest - (m + t))
            if key not in memo:
                memo[key] = _axis_limit(a, key[1], q)
            term *= memo[key]
        total += term
    return total


def _cabs(z):
    return math.hypot(z.real, z.imag)


# ---------------------------------------------------------------------------
# High-precision series oracle.


class SeriesOracle:
    """Values of the four q-zeta families, cached per invocation.

    All four are (1+q) * sum_{n>=n0} c(n) q^(s n) [n+x]^(-s) with c periodic
    mod D, continued to every s.  The sum splits at K: the head n < K is
    summed term by term, and in the tail [n+x]^(-s) = (1-q)^s sum_j
    C(s+j-1, j) q^((n+x) j) turns the n-sum into periodic geometric sums
    in z = q^(s+j), each summed in closed form.  Precision rises until two
    evaluations 20 digits apart agree to 30 digits, which covers the
    cancellation at negative s and q near 1.
    """

    def __init__(self, Q):
        self.Q = Q
        self.cache = {}

    def value(self, family, s, q, extra=()):
        """('exact', Fraction) or ('mp', mpc) for the series point."""
        key = (family, complex(s), float(q), tuple(_key(e) for e in extra))
        if key not in self.cache:
            self.cache[key] = self._compute(family, complex(s), float(q), extra)
        return self.cache[key]

    def _compute(self, family, s, q, extra):
        Q = self.Q
        m = _neg_int(s)
        qf = Fraction(q)
        if m is not None:
            if family == "euler":
                return "exact", Q.euler_zeta_neg_int_exact(m, qf)
            if family == "hurwitz" and float(extra[0]).is_integer() and m >= 1:
                return "exact", Q.hurwitz_neg_int_exact(m, qf, 1, int(extra[0]))
            if family == "partial" and m >= 1:
                return "exact", Q.partial_zeta_neg_int_exact(m, extra[0], extra[1], qf)
        return "mp", self._mp(family, s, q, extra)

    def _mp(self, family, s, q, extra, digits=40):
        import mpmath as mp

        # Half-period coefficients h: c(n) = h[n % len(h)] * (-1)**(n // len(h)).
        if family == "euler":
            x, n0, half = 0.0, 1, [1]
        elif family == "hurwitz":
            x, n0, half = float(extra[0]), 0, [1]
        elif family == "lseries":
            half = []
            for n in range(extra[0].modulus):
                v = extra[0](n)
                if v == 0:
                    half.append(0)
                else:
                    e = v.exponent
                    half.append((-1) ** n * mp.expjpi(mp.mpf(2 * e.numerator) / e.denominator))
            x, n0 = 0.0, 1
        elif family == "partial":
            a, F = extra
            half = [((-1) ** n if n == a % F else 0) for n in range(F)]
            x, n0 = 0.0, 1
        else:
            raise ValueError(family)
        return mp_periodic_series(s, q, x, n0, half, digits)

    def closed_poly(self, m, q, x):
        """E_m(x) = (1+q)/(1-q)^m sum_j C(m,j)(-1)^j q^(x j)/(1 + q^(j-m)) at float q, x."""
        import mpmath as mp

        digits = 40 + int(m * -math.log10(1 - q)) + m
        with mp.workdps(digits):
            qm, xm = mp.mpf(q), mp.mpf(x)
            total = mp.fsum(
                (-1) ** j * comb(m, j) * qm ** (xm * j) / (1 + qm ** (j - m)) for j in range(m + 1)
            )
            return "mp", (1 + qm) / (1 - qm) ** m * total


def _key(e):
    if type(e).__name__ == "DirichletCharacter":
        return ("chi", e.modulus, e.exponents)
    return e


def _neg_int(s):
    """m >= 0 with s = -m, else None."""
    if s.imag == 0 and s.real <= 0 and s.real.is_integer():
        return -int(s.real)
    return None


def mp_periodic_series(s, q, x, n0, half, digits=40):
    """(1+q) sum_{n>=n0} c(n) q^(s n) [n+x]^(-s), analytically continued,
    for c(n) = half[n % h] * (-1)**(n // h) with h = len(half).

    Evaluated at ``digits`` and again at ``digits + 20``; while the two
    differ by more than 1e-30 * max(1, |value|) the precision goes up.
    """
    while True:
        lo = _periodic_series_at(s, q, x, n0, half, digits)
        hi = _periodic_series_at(s, q, x, n0, half, digits + 20)
        if abs(hi - lo) <= 1e-30 * max(1, abs(hi)):
            return hi
        if digits > 2_000:
            raise ArithmeticError(f"oracle precision runaway at s={s}, q={q}")
        digits += 40


def _periodic_series_at(s, q, x, n0, half, digits):
    import mpmath as mp

    h = len(half)
    lam = -math.log(q)
    # Split point q^K = e^-c, balancing a transcendental per head term
    # against an h-term Horner sum per tail term.
    c = min(60.0, max(0.2, math.sqrt(8 * (h + 6) * lam)))
    K = max(n0, math.ceil(c / lam))
    j_top = max(0, math.ceil(-s.real)) + 1
    with mp.workdps(digits):
        sm = mp.mpc(s.real, s.imag) if s.imag else mp.mpf(s.real)
        qm, xm = mp.mpf(q), mp.mpf(x)
        lnq = mp.log(qm)
        one_q = 1 - qm
        head = mp.mpf(0)
        qnx = mp.exp((n0 + xm) * lnq)
        for n in range(n0, K):
            cn = half[n % h]
            if cn != 0:
                term = cn * mp.exp(sm * (n * lnq - mp.log((1 - qnx) / one_q)))
                head += -term if (n // h) % 2 else term
            qnx *= qm
        # sum_{n>=K} c(n) z^n = z^K sum_{r<h} c(K+r) z^r / (1 + z^h), z = q^(s+j);
        # z, z^K, z^h and q^(x j) are stepped by constant factors per j.
        cs = [half[(K + r) % h] * (-1) ** ((K + r) // h) for r in range(h)]
        z = mp.exp(sm * lnq)
        zK = mp.exp(K * sm * lnq)
        zh = mp.exp(h * sm * lnq)
        qxj = mp.mpf(1)
        step_K, step_h, step_x = qm**K, qm**h, mp.exp(xm * lnq)
        tail = mp.mpf(0)
        binom = mp.mpf(1)  # C(s+j-1, j)
        tol = mp.mpf(10) ** (-digits)
        small = 0
        j = 0
        while True:
            acc = mp.mpf(0)
            for cr in reversed(cs):
                acc = acc * z + cr
            term = binom * qxj * zK * acc / (1 + zh)
            tail += term
            small = small + 1 if abs(term) <= tol * abs(tail) else 0
            if j > j_top and (small >= 3 or binom == 0):
                break
            if j > 100_000:
                raise ArithmeticError(f"oracle tail did not converge at s={s}, q={q}")
            binom *= (sm + j) / (j + 1)
            z *= qm
            zK *= step_K
            zh *= step_h
            qxj *= step_x
            j += 1
        return (1 + qm) * (head + mp.exp(sm * mp.log(one_q)) * tail)


# ---------------------------------------------------------------------------
# Comparison rule shared by series-grid, cli-e2e and the traced bound check.


def series_error(value, oracle):
    """|value - oracle| as a float; inf for NaN values."""
    kind, ref = oracle
    if kind == "exact":
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return math.inf
        return math.hypot(float(Fraction(value.real) - ref), value.imag)
    import mpmath as mp

    with mp.workdps(40):
        err = float(abs(mp.mpc(value.real, value.imag) - ref))
    return err if err == err else math.inf


def oracle_abs(oracle):
    kind, ref = oracle
    return abs(float(ref)) if kind == "exact" else float(abs(ref))


def within_bound(value, reported_err, oracle, eps=EPS):
    """The series rule: |value - oracle| <= reported bound + eps * max(1, |oracle|)."""
    err = series_error(value, oracle)
    allowed = (reported_err or 0.0) + eps * max(1.0, oracle_abs(oracle))
    return err <= allowed, err, allowed


# ---------------------------------------------------------------------------
# Per-workload checks: (ops, first results, qeuler, SeriesOracle) ->
# {op index: failure reason}.


def _groups(ops):
    out = {}
    for i, op in enumerate(ops):
        out.setdefault(op.group, []).append(i)
    return out


def _fail_all(failures, idx, reason):
    for i in idx:
        failures.setdefault(i, reason)


def check_exact_routes(ops, results, Q, oracle):
    failures = {}
    for group, idx in _groups(ops).items():
        vals = [results[i] for i in idx]
        raised = [i for i, v in zip(idx, vals) if isinstance(v, Raised)]
        if raised:
            for i in raised:
                failures[i] = f"raised {results[i].kind}: {results[i].message}"
            _fail_all(failures, idx, "partner route raised; agreement unchecked")
            continue
        if group.startswith("order-k"):
            m, k, q = ops[idx[0]].args
            if vals[0] != higher_order_multinomial(m, k, q):
                failures[idx[0]] = "differs from the multinomial k-fold expansion"
        elif group.startswith("partition"):
            if sum(vals[:-1], Fraction(0)) != vals[-1]:
                _fail_all(failures, idx, "partial values do not add up to the zeta value")
        elif group.startswith("residual"):
            if vals[0] != 0:
                failures[idx[0]] = f"residual {vals[0]} != 0"
        elif group.startswith("twist") and group.endswith("complex"):
            a, b = complex(vals[0]), complex(vals[1])
            if not _cabs(a - b) <= COMPLEX_TOL * max(1.0, _cabs(b)):
                _fail_all(failures, idx, f"routes differ by {_cabs(a - b):.3e}")
        else:
            if not (isinstance(vals[0], Fraction) and vals[0] == vals[1]):
                _fail_all(failures, idx, "the two exact routes differ")
    return failures


def check_padic_stages(ops, results, Q, oracle):
    failures = {}
    for i, op in enumerate(ops):
        res = results[i]
        if isinstance(res, Raised):
            failures[i] = f"raised {res.kind}: {res.message}"
            continue
        if op.fn == "convergence_report":
            f, ctx, n_max, ref = op.args
            m = f.terms[0].bracket_power
            if ref != higher_order_multinomial(m, 1, ctx.q):
                failures[i] = "reference input differs from the multinomial route"
                continue
            if [N for N, _ in res.stages] != list(range(1, n_max + 1)):
                failures[i] = "stages are not 1..N_max"
                continue
            vals = [vp(S - ref, ctx.p) for _, S in res.stages]
            bad = [N for N, v in zip(range(1, n_max + 1), vals) if v < N]
            if bad:
                failures[i] = f"v_p(S_N - E) < N at N = {bad}"
            elif res.valuations != vals:
                failures[i] = f"reported valuations {res.valuations} != {vals}"
        else:
            m, k, ctx, N = op.args
            v = vp(res - higher_order_multinomial(m, k, ctx.q), ctx.p)
            if v < N:
                failures[i] = f"v_p(S_N - E) = {v} < N = {N}"
    return failures


def series_family(fn):
    for family, prefix in (("euler", "euler_zeta_q"), ("hurwitz", "hurwitz_zeta_q"),
                           ("lseries", "l_series"), ("partial", "partial_zeta")):
        if fn.startswith(prefix):
            return family
    raise ValueError(fn)


def check_series_grid(ops, results, Q, oracle):
    failures = {}
    for i, op in enumerate(ops):
        res = results[i]
        if isinstance(res, Raised):
            failures[i] = f"raised {res.kind}: {res.message}"
            continue
        s, *extra, q = op.args
        ok, err, allowed = within_bound(res.value, res.abs_error_estimate,
                                        oracle.value(series_family(op.fn), s, q, extra))
        if not ok:
            failures[i] = (f"value {res.value:.10g} off by {err:.3e} > allowed {allowed:.3e} "
                           f"(reported bound {res.abs_error_estimate:.3e})")
    return failures


def _opts(argv):
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            out[tok[2:]] = True if nxt is None or nxt.startswith("--") else nxt
    return out


def _exact_root(q, d):
    num = round(q.numerator ** (1 / d))
    den = round(q.denominator ** (1 / d))
    r = Fraction(num, den)
    if r**d != q:
        raise ValueError(f"{q} is not a {d}-th power")
    return r


def eval_reference(argv, Q, oracle):
    """('exact', Fraction) for an exact record, ('float', oracle value) for a float one."""
    fn = argv[1]
    o = _opts(argv)
    exact = "exact" in o
    q_text = o.get("q")
    qx = Fraction(q_text) if q_text else None
    if fn == "qeuler":
        m, k = int(o["m"]), int(o.get("k", 1))
        if exact:
            return "exact", Q.qeuler_higher(m, k, qx)
        return "float", ("exact", Q.qeuler_higher(m, k, Fraction(float(qx))))
    if fn == "qeuler-poly":
        m, x = int(o["m"]), Fraction(o["x"])
        if exact:
            r = _exact_root(qx, x.denominator)
            return "exact", Q.qeuler_poly_exact(m, r, x.denominator, x.numerator)
        return "float", oracle.closed_poly(m, float(qx), float(x))
    if fn == "classical":
        return "exact", Q.euler_classical(int(o["m"]), int(o.get("k", 1)))
    if fn == "integral-stage":
        ctx = Q.PAdicQParam(int(o["p"]), qx)
        return "exact", Q.higher_order_stage(int(o["m"]), int(o.get("k", 1)), ctx, int(o["N"]))
    re_im = [float(t) for t in o["s"].split(",")]
    s = complex(re_im[0], re_im[1] if len(re_im) > 1 else 0.0)
    family = {"zeta": "euler", "hurwitz": "hurwitz", "lseries": "lseries", "partial": "partial"}[fn]
    if family == "hurwitz":
        extra = [Fraction(o["x"])]
    elif family == "lseries":
        d, idx = (int(t) for t in o["char"].split(":"))
        extra = [Q.characters_mod(d)[idx]]
    elif family == "partial":
        extra = [int(o["a"]), int(o["F"])]
    else:
        extra = []
    if exact:
        m = -int(s.real)
        if family == "euler":
            return "exact", Q.euler_zeta_neg_int_exact(m, qx)
        if family == "hurwitz":
            x = extra[0]
            r = _exact_root(qx, x.denominator)
            return "exact", Q.hurwitz_neg_int_exact(m, r, x.denominator, x.numerator)
        if family == "lseries":
            return "exact", Q.l_neg_int_exact(m, extra[0], qx)
        return "exact", Q.partial_zeta_neg_int_exact(m, extra[0], extra[1], qx)
    if family == "hurwitz":
        extra = [float(extra[0])]
    return "float", oracle.value(family, s, float(qx), extra)


def check_cli(ops, results, Q, oracle):
    failures = {}
    for i, op in enumerate(ops):
        res = results[i]
        argv = list(op.args[0])
        if isinstance(res, Raised):
            failures[i] = f"raised {res.kind}: {res.message}"
            continue
        if res.rc != 0:
            failures[i] = f"exit code {res.rc}: {res.stderr.strip()[:200]}"
            continue
        if op.group.startswith("golden"):
            if res.stdout.encode() != op.expect:
                failures[i] = "stdout differs from the golden table"
            continue
        if argv[0] != "eval":
            continue
        record = json.loads(res.stdout)
        kind, ref = eval_reference(argv, Q, oracle)
        v = record["value"]
        if kind == "exact":
            if "num" not in v or Fraction(v["num"], v["den"]) != ref:
                failures[i] = f"record {v} != exact {ref}"
            continue
        value = complex(v["re"], v["im"])
        ok, err, allowed = within_bound(value, record["err"], ref)
        if not ok:
            failures[i] = f"value {value:.10g} off by {err:.3e} > allowed {allowed:.3e}"
    return failures


CHECKS = {
    "exact-routes": check_exact_routes,
    "padic-stages": check_padic_stages,
    "series-grid": check_series_grid,
    "cli-e2e": check_cli,
}
