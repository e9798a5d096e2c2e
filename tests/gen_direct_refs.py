"""Print the reference tables ``DIRECT_REFS``, ``CLASS_REFS`` and ``GATE_REFS``
of ``test_zeta.py``.

Each cell of ``DIRECT_CELLS`` (plus ``LARGE_IM_CELL`` and
``LARGE_S_CELLS``) is the defining series (1+q) sum_n c(n) (-1)**n
q**(s n) [n+x]**(-s), summed term by term in mpmath at 40 digits, with
the float arguments taken exactly and exact character values
e**(2 pi i k / order), until a term falls below 1e-36 (about 74,000
terms at q = 0.999, Re(s) = 1).
The terms are at most T0 q**(Re(s) n), so the tail left is below
1e-36 / (1 - q**Re(s)) < 1e-32.  Values are printed to 30 digits.

Each cell of ``CLASS_CELLS`` (Re(s) <= 0, where the defining series
diverges) is the class decomposition of the series at 50 digits,

    (1+q)/(1+q**d) [d]**(-s) sum_a chi(a) (-1)**a q**(s a) zeta_H(s, a/d; q**d),

over the classes n = a (mod d) with chi(a) != 0 (d = 1 and a = 1 for
zeta_E, d = F and the one a for the partial zeta), each zeta_H summed as
its binomial continuation (1+Q) (1-Q)**s sum_j C(s+j-1, j) Q**(x j) /
(1 + Q**(s+j)) at base Q = q**d.  The library sums the progression
n = a + d k at base q instead, so the two share no code.  Against the
same sum at 100 digits every cell agrees to 1e-41 relative or better
(cancellation at Re(s) = -8 costs some digits); values are printed to
40 digits.

Each cell of ``GATE_CELLS`` (zeta_E and zeta_H at Re(s) <= 0 or large
|Im s|, q near 1) is the analytically continued series of the benchmark's
oracle, ``perfbench/checks.py``'s ``mp_periodic_series``, which raises
its precision until two evaluations 20 digits apart agree to 1e-30
relative.  It is imported read-only here; the tests never import it.
Values are printed to 30 digits.

``PROBE_REFS`` holds every cell of the benchmark's ``series-grid``
known-defect probe at seeds ``PROBE_SEEDS`` whose value the benchmark's
own check (``perfbench/checks.py``'s ``check_series_grid``) finds wrong:
off its oracle by more than its reported bound plus eps max(1, |oracle|).
Cells that raise a typed error are left out.  Each cell's arguments come
from ``perfbench/inputs.py``'s ``build``, and its reference is the
check's oracle: the library's exact route at Fraction(q) where that is a
Fraction (zeta_E, and zeta_H at an integer x and partial zeta at s = -m),
else ``mp_periodic_series``.  Both modules are imported read-only.
Values are printed to 30 digits.

    PYTHONPATH=src python3 tests/gen_direct_refs.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp
from test_bound_gate import GATE_CELLS
from test_zeta import (CLASS_CELLS, DIRECT_CELLS, LARGE_IM_CELL, LARGE_S_CELLS,
                       direct_character)


def reference(family, s, q, extra):
    mp.mp.dps = 40
    sm = mp.mpc(s.real, s.imag)
    qm = mp.mpf(q)
    x, n0, step, chi = mp.mpf(0), 1, 1, None
    if family == "hurwitz":
        x, n0 = mp.mpf(extra), 0
    elif family == "partial":
        n0, step = extra
    elif family == "lseries":
        chi = direct_character(*extra)
        values = [0 if v == 0 else root(v) for v in map(chi, range(chi.modulus))]
    lnq = mp.log(qm)
    total = mp.mpc(0)
    n = n0
    while True:
        c = 1 if chi is None else values[n % chi.modulus]
        bracket = -mp.expm1((n + x) * lnq) / (1 - qm)
        size = mp.exp(sm.real * (n * lnq - mp.log(bracket)))
        if c != 0:
            term = c * mp.exp(sm * (n * lnq - mp.log(bracket)))
            total += -term if n % 2 else term
        if size < mp.mpf(10) ** -36:
            return (1 + qm) * total
        n += step


def root(v):
    """The exact value e**(2 pi i k / order) of a character value."""
    return mp.expjpi(mp.mpf(2 * v.numerator) / v.order)


def hurwitz_continuation(s, x, Q, weight):
    """``weight`` times zeta_H(s, x; Q) by its binomial continuation, summed
    until a weighted term falls below 1e-55 past j = |s| (the coefficients
    then shrink and Q**(x j) decays geometrically)."""
    weight *= (1 + Q) * (1 - Q) ** s
    total, coeff, j = mp.mpc(0), mp.mpf(1), 0
    Qx = Q**x
    while True:
        term = weight * coeff * Qx**j / (1 + Q ** (s + j))
        total += term
        if j > abs(s) and abs(term) < mp.mpf(10) ** -55:
            return total
        coeff *= (s + j) / (j + 1)
        j += 1


def class_reference(family, s, q, extra):
    mp.mp.dps = 50
    sm, qm = mp.mpc(s.real, s.imag), mp.mpf(q)
    if family == "euler":
        d, classes = 1, [(1, 1)]
    elif family == "partial":
        a, d = extra
        classes = [(a, 1)]
    else:
        chi = direct_character(*extra)
        d = chi.modulus
        classes = [(a, root(v)) for a in range(1, d + 1) if (v := chi(a)) != 0]
    Q = qm**d
    weight = (1 + qm) / (1 + Q) * ((1 - Q) / (1 - qm)) ** -sm
    total = mp.mpc(0)
    for a, c in classes:
        w = weight * c * (-1) ** a * qm ** (sm * a)
        total += hurwitz_continuation(sm, mp.mpf(a) / d, Q, w)
    return total


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PROBE_SEEDS = (2001, 2002, 2003)


def gate_reference(family, s, q, extra):
    sys.path.insert(0, str(PERFBENCH))
    from checks import mp_periodic_series

    x, n0 = (extra, 0) if family == "hurwitz" else (0.0, 1)
    return mp_periodic_series(complex(s), q, x, n0, [1])


def probe_refs():
    """{cell: oracle value} for the probe cells that return a wrong value,
    a cell being (public function, s, q, extra) with extra as in
    ``test_zeta.py``'s cells: (), x, (a, F) or a character's (d, index)."""
    sys.path.insert(0, str(PERFBENCH))
    import qeuler
    from checks import Raised, SeriesOracle, check_series_grid, series_family
    from inputs import build

    mp.mp.dps = 60  # an exact reference is rounded here, once
    oracle, refs = SeriesOracle(qeuler), {}
    for seed in PROBE_SEEDS:
        _, probe = build("series-grid", seed, qeuler, PERFBENCH.parent)
        results = []
        for op in probe:
            try:
                results.append(getattr(qeuler, op.fn)(*op.args))
            except Exception as exc:  # noqa: BLE001 - the check reads a raise as a result
                results.append(Raised.of(exc))
        for i in check_series_grid(probe, results, qeuler, oracle):
            if isinstance(results[i], Raised):
                continue
            op = probe[i]
            s, *extra, q = op.args
            if op.fn.startswith("l_series"):
                extra = (extra[0].modulus, extra[0].index)
            elif op.fn.startswith("hurwitz"):
                (extra,) = extra
            else:
                extra = tuple(extra)
            kind, v = oracle.value(series_family(op.fn), s, q, op.args[1:-1])
            refs[(op.fn, s, q, extra)] = mp.mpc(mp.mpf(v.numerator) / v.denominator
                                                if kind == "exact" else v)
    return refs


def print_table(name, cells, reference, digits):
    print(f"{name} = {{")
    for cell in cells:
        v = reference(*cell)
        re, im = mp.nstr(v.real, digits), mp.nstr(v.imag, digits)
        print(f"    {cell!r}:\n        ({re!r}, {im!r}),")
    print("}")


def main():
    print_table("DIRECT_REFS", [*DIRECT_CELLS, LARGE_IM_CELL, *LARGE_S_CELLS], reference, 30)
    print_table("CLASS_REFS", CLASS_CELLS, class_reference, 40)
    print_table("GATE_REFS", GATE_CELLS, gate_reference, 30)
    refs = probe_refs()
    print_table("PROBE_REFS", refs, lambda *cell: refs[cell], 30)


if __name__ == "__main__":
    main()
