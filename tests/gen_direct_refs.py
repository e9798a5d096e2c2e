"""Print the reference table ``DIRECT_REFS`` of ``test_zeta.py``.

Each cell of ``DIRECT_CELLS`` (plus ``LARGE_IM_CELL`` and
``LARGE_S_CELLS``) is the defining series (1+q) sum_n c(n) (-1)**n
q**(s n) [n+x]**(-s), summed term by term in mpmath at 40 digits, with
the float arguments taken exactly and exact character values
e**(2 pi i k / order), until a term falls below 1e-36 (about 74,000
terms at q = 0.999, Re(s) = 1).
The terms are at most T0 q**(Re(s) n), so the tail left is below
1e-36 / (1 - q**Re(s)) < 1e-32.  Values are printed to 30 digits.

    PYTHONPATH=src python3 tests/gen_direct_refs.py
"""

from __future__ import annotations

import mpmath as mp
from test_zeta import DIRECT_CELLS, LARGE_IM_CELL, LARGE_S_CELLS, direct_character


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
        values = [chi(a) for a in range(chi.modulus)]
        values = [0 if v == 0 else mp.expjpi(mp.mpf(2 * v.numerator) / v.order) for v in values]
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


def main():
    print("DIRECT_REFS = {")
    for cell in [*DIRECT_CELLS, LARGE_IM_CELL, *LARGE_S_CELLS]:
        v = reference(*cell)
        print(f"    {cell!r}:\n        ({mp.nstr(v.real, 30)!r}, {mp.nstr(v.imag, 30)!r}),")
    print("}")


if __name__ == "__main__":
    main()
