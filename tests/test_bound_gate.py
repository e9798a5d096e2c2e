"""The correctness gate (ROADMAP item 1): a series call returns a value
within its reported ``abs_error_estimate`` of the reference, or raises a
typed error.

``GATE_CELLS`` and ``GATE_EXACT`` are calls picked by hand;
``PROBE_REFS`` holds every cell of the ``series-grid`` benchmark's
known-defect probe at seeds 2001-2003 that returns a wrong value there.
The references are literals printed by ``tests/gen_direct_refs.py``.
The cells live in a module of their own because pytest parses the source
of a test's module to report each expected failure, which costs about
50 ms per cell in the much larger ``test_zeta.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest

import qeuler
from qeuler import DomainError, NearSingularError, NonConvergenceError, euler_zeta_neg_int_exact

from test_zeta import continuation, direct_character, direct_id

F = Fraction

# Calls of the correctness gate (ROADMAP item 1) whose continuation
# breaks its reported bound; the exact cell zeta_E(-12, 0.99) is
# ``GATE_EXACT``
GATE_CELLS = [("euler", -8.0001, 0.99, ()), ("hurwitz", -30.5, 0.9, 1.0),
              ("hurwitz", complex(-3.5, 1), 0.99, 1.0), ("hurwitz", complex(0.5, 200), 0.99, 1.0),
              ("euler", -8.0001, 0.9, ())]

GATE_REFS = {
    ('euler', -8.0001, 0.99, ()):
        ('-0.644193266582544106389022377152', '0.0'),
    ('hurwitz', -30.5, 0.9, 1.0):
        ('-2431083673402310.89697633133541', '0.0'),
    ('hurwitz', (-3.5+1j), 0.99, 1.0):
        ('-0.4920782178386652787670606476', '-0.284950860826038204944685839016'),
    ('hurwitz', (0.5+200j), 0.99, 1.0):
        ('3.94995617230185581257264714607', '-4.13101677832358348003742689849'),
    ('euler', -8.0001, 0.9, ()):
        ('-6.48321787964375451178411915076', '0.0'),
}

# The series-grid benchmark's probe cells (seeds 2001-2003) whose value
# its own check finds wrong, keyed (public function, s, q, extra), each
# with its oracle value; see tests/gen_direct_refs.py.
PROBE_REFS = {
    ('euler_zeta_q', -11.0, 0.309, ()):
        ('1.72043967944967506209635665846', '0.0'),
    ('euler_zeta_q', -8.0001, 0.6, ()):
        ('4.83686873772218706640734672661', '0.0'),
    ('euler_zeta_q', -12.0, 0.6, ()):
        ('-53.84853367422257825194485562', '0.0'),
    ('euler_zeta_q', (-3.5+1j), 0.899, ()):
        ('0.554487696453519098481123044969', '0.479886527604312273046488884123'),
    ('euler_zeta_q', -6.686, 0.899, ()):
        ('1.91317615360009934459782431392', '0.0'),
    ('euler_zeta_q', -7.0, 0.899, ()):
        ('1.59335223210127747778263253507', '0.0'),
    ('euler_zeta_q', -2.5, 0.99, ()):
        ('0.179418528265223958710838668794', '0.0'),
    ('euler_zeta_q', -9.184, 0.99, ()):
        ('-17.9288785786431683352183844358', '0.0'),
    ('euler_zeta_q', -9.0, 0.99, ()):
        ('-15.9452854502821408035856965749', '0.0'),
    ('euler_zeta_q', -6.0, 0.99, ()):
        ('0.0656156390154147597803637401538', '0.0'),
    ('euler_zeta_q', -8.0001, 0.999, ()):
        ('-0.0631071069272136238106367633279', '0.0'),
    ('euler_zeta_q', -10.0, 0.999, ()):
        ('0.868018498254074462061570057927', '0.0'),
    ('euler_zeta_q', -3.0, 0.999, ()):
        ('0.250249623999187688816125755766', '0.0'),
    ('hurwitz_zeta_q', -9.0, 0.597, 0.3333333333333333):
        ('0.0513244915812850658727543735502', '0.0'),
    ('hurwitz_zeta_q', -9.201, 0.899, 0.3333333333333333):
        ('-12.2874864501139565610310552309', '0.0'),
    ('hurwitz_zeta_q', -10.0, 0.899, 1.0):
        ('-21.4018144758246680442192675105', '0.0'),
    ('hurwitz_zeta_q', -8.0001, 0.99, 0.3333333333333333):
        ('4.37550416440083362370034634797', '0.0'),
    ('hurwitz_zeta_q', -11.614, 0.99, 1.0):
        ('-132.492084833728438566868051365', '0.0'),
    ('hurwitz_zeta_q', -11.0, 0.99, 2.5):
        ('178.716394952816692977410206285', '0.0'),
    ('hurwitz_zeta_q', -8.0, 0.999, 0.3333333333333333):
        ('4.65807800355729934353051692633', '0.0'),
    ('hurwitz_zeta_q', -2.0, 0.999, 1.0):
        ('-0.000249749875000062784131432632911', '0.0'),
    ('l_series', -10.0, 0.99, (15, 7)):
        ('-36833324749730.0859854381632874', '22764246589025.4677112831237116'),
    ('l_series', -4.294, 0.999, (15, 7)):
        ('64341.592913534680491373766667', '-39762.6747996838645743246156703'),
    ('l_series', -7.0, 0.999, (105, 35)):
        ('-941966859364071.850375738148131', '2071246792654168.67598369042551'),
    ('l_series', -4.0, 0.999, (15, 7)):
        ('2501.20540086328050929831766352', '-1545.80138325420363196819725668'),
    ('partial_zeta', -10.0, 0.901, (5, 5)):
        ('16368158.6005606757033400083396', '0.0'),
    ('partial_zeta', -2.5, 0.99, (1, 3)):
        ('0.874884428945891585459273205445', '0.0'),
    ('partial_zeta', -4.302, 0.99, (1, 5)):
        ('9.20930851398170330930930658553', '0.0'),
    ('partial_zeta', -7.0, 0.99, (12, 15)):
        ('116955624.384920871912840910998', '0.0'),
    ('partial_zeta', -3.0, 0.99, (1, 3)):
        ('-3.60966953790974896322816348527', '0.0'),
    ('partial_zeta', -8.0001, 0.999, (2, 5)):
        ('1976019.06983079054006004021586', '0.0'),
    ('partial_zeta', -6.685, 0.999, (3, 15)):
        ('-63984159.1085316163071377347421', '0.0'),
    ('partial_zeta', -7.0, 0.999, (1, 3)):
        ('-2436.57759588089008510090495193', '0.0'),
    ('partial_zeta', -5.0, 0.999, (5, 5)):
        ('-1565.07458421152087577627397358', '0.0'),
    ('euler_zeta_q', -11.0, 0.307, ()):
        ('1.77078794055151208455030102219', '0.0'),
    ('euler_zeta_q', -8.0001, 0.601, ()):
        ('4.85333283322311972885127150187', '0.0'),
    ('euler_zeta_q', -10.0, 0.601, ()):
        ('8.74767171351587917544051674339', '0.0'),
    ('euler_zeta_q', -6.717, 0.901, ()):
        ('1.92736046546665536887596432761', '0.0'),
    ('euler_zeta_q', -11.0, 0.901, ()):
        ('-119.581487018771131399134198904', '0.0'),
    ('euler_zeta_q', -6.0, 0.901, ()):
        ('0.750252273658322673594289131493', '0.0'),
    ('euler_zeta_q', -9.202, 0.99, ()):
        ('-18.0427834377984170382471835835', '0.0'),
    ('euler_zeta_q', -12.0, 0.99, ()):
        ('-171.589492100093902930215052684', '0.0'),
    ('euler_zeta_q', -11.0, 0.999, ()):
        ('173.573485548944733006118205391', '0.0'),
    ('euler_zeta_q', -5.0, 0.999, ()):
        ('-0.500994355621641628313390436979', '0.0'),
    ('hurwitz_zeta_q', -12.0, 0.599, 0.3333333333333333):
        ('-13.1602264618304425020465385331', '0.0'),
    ('hurwitz_zeta_q', -9.2, 0.9, 0.3333333333333333):
        ('-12.5389980826360900420495258612', '0.0'),
    ('hurwitz_zeta_q', -7.0, 0.9, 1.0):
        ('-0.770759670325039937688238653014', '0.0'),
    ('hurwitz_zeta_q', -5.0, 0.9, 2.5):
        ('7.38968367303953745620727395712', '0.0'),
    ('hurwitz_zeta_q', -11.593, 0.99, 1.0):
        ('-139.887813749387977258872894012', '0.0'),
    ('hurwitz_zeta_q', -10.0, 0.99, 2.5):
        ('61.7574313883569890104205370333', '0.0'),
    ('hurwitz_zeta_q', -4.0, 0.99, 0.3333333333333333):
        ('0.266867090096106632352331545077', '0.0'),
    ('hurwitz_zeta_q', -11.0, 0.999, 0.3333333333333333):
        ('89.6168922827638591378237496908', '0.0'),
    ('hurwitz_zeta_q', -3.0, 0.999, 1.0):
        ('-0.249499625625812498648090122432', '0.0'),
    ('l_series', -4.288, 0.999, (15, 5)):
        ('62076.755537203072863790597779', '38362.9957970300325222373316604'),
    ('l_series', -8.0, 0.999, (105, 43)):
        ('-113657394411251942.263688280894', '-249915919011599509.119439037476'),
    ('partial_zeta', -4.308, 0.99, (1, 5)):
        ('12.9656489391489292456709715863', '0.0'),
    ('partial_zeta', -8.0, 0.99, (12, 15)):
        ('8475900294.21011201439616635663', '0.0'),
    ('partial_zeta', -6.714, 0.999, (3, 15)):
        ('-75966918.1267162643269593425793', '0.0'),
    ('partial_zeta', -11.0, 0.999, (1, 3)):
        ('-17021602.5486926367826641593498', '0.0'),
    ('euler_zeta_q', -8.0001, 0.598, ()):
        ('4.80234146931912550115182391451', '0.0'),
    ('euler_zeta_q', -7.0, 0.598, ()):
        ('-1.87755488163617106027847841675', '0.0'),
    ('euler_zeta_q', (-3.5+1j), 0.897, ()):
        ('0.554928255310971608456417271273', '0.484921022916073425261806555261'),
    ('euler_zeta_q', -6.71, 0.897, ()):
        ('1.909301297021128787741881263', '0.0'),
    ('euler_zeta_q', -10.0, 0.897, ()):
        ('61.5026441612324360482585539598', '0.0'),
    ('euler_zeta_q', -9.201, 0.99, ()):
        ('-18.0369095560071708557820962638', '0.0'),
    ('euler_zeta_q', -8.0, 0.99, ()):
        ('-0.643240124872975772064439083435', '0.0'),
    ('euler_zeta_q', -2.0, 0.99, ()):
        ('0.00252512499368718978097004026267', '0.0'),
    ('euler_zeta_q', -12.0, 0.999, ()):
        ('-16.4793544753976497151366390189', '0.0'),
    ('hurwitz_zeta_q', -9.183, 0.898, 0.3333333333333333):
        ('-12.2587358826431826500937044349', '0.0'),
    ('hurwitz_zeta_q', -9.0, 0.898, 1.0):
        ('0.428014286327734173310829463839', '0.0'),
    ('hurwitz_zeta_q', -11.617, 0.99, 1.0):
        ('-131.379863736175695803992018176', '0.0'),
    ('hurwitz_zeta_q', -2.0, 0.99, 0.3333333333333333):
        ('-0.220627576830472576574206231127', '0.0'),
    ('hurwitz_zeta_q', -12.0, 0.999, 0.3333333333333333):
        ('563.907172433847798484240671988', '0.0'),
    ('hurwitz_zeta_q', -5.0, 0.999, 1.0):
        ('0.498494388779650548939467154018', '0.0'),
    ('l_series', -10.0, 0.99, (15, 5)):
        ('-36833324749730.0859854381632874', '-22764246589025.4677112831237116'),
    ('l_series', -4.311, 0.999, (15, 5)):
        ('71078.239156162899557401658029', '43925.9565168870700547069739127'),
    ('l_series', -8.0, 0.999, (105, 32)):
        ('619973149887946220.433891270134', '-284518827826825280.208912012108'),
    ('l_series', -2.0, 0.999, (15, 7)):
        ('-2.74242987226759981313210728105', '1.69350033267694686076347224086'),
    ('partial_zeta', -8.0, 0.902, (5, 5)):
        ('465317.401960722359967373881482', '0.0'),
    ('partial_zeta', -4.312, 0.99, (1, 5)):
        ('15.5198081302981370458120293194', '0.0'),
    ('partial_zeta', -11.0, 0.99, (12, 15)):
        ('802130020914871.479133030543246', '0.0'),
    ('partial_zeta', -4.0, 0.99, (1, 3)):
        ('-20.9700748810002722872101132999', '0.0'),
    ('partial_zeta', -6.715, 0.999, (3, 15)):
        ('-76408867.84206422758174441074', '0.0'),
}


GATE_EXACT = ("euler", -12, 0.99, ())
GATE_XFAIL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the reported bound leaves rounding out (ROADMAP item 1(a))")


class TestReportedBoundGate:
    """The correctness gate: each call returns a value within its reported
    ``abs_error_estimate`` of the reference, or raises a typed error.  The
    references are exact (``GATE_EXACT``) or 30-digit literals
    (``GATE_REFS``, ``PROBE_REFS``).  Every cell breaks its bound today
    (zeta_E(-12, 0.99) returns -1.8e11 with a bound of 0.0), so each is a
    strict xfail until the running rounding bound lands."""

    TYPED = (DomainError, NonConvergenceError, NearSingularError, OverflowError)

    @pytest.mark.parametrize("cell", [
        pytest.param(c, marks=GATE_XFAIL, id=direct_id(c)) for c in [GATE_EXACT, *GATE_CELLS]])
    def test_value_within_its_reported_bound(self, cell):
        try:
            got = continuation(cell)
        except self.TYPED:
            return
        if cell == GATE_EXACT:
            ref = euler_zeta_neg_int_exact(12, F(0.99))
            err = math.hypot(float(F(got.value.real) - ref), got.value.imag)
        else:
            with mpmath.workdps(40):
                err = abs(mpmath.mpc(got.value) - mpmath.mpc(*GATE_REFS[cell]))
        assert err <= got.abs_error_estimate

    @pytest.mark.parametrize("cell", [
        pytest.param(c, marks=GATE_XFAIL, id=direct_id(c)) for c in PROBE_REFS])
    def test_probe_value_within_its_reported_bound(self, cell):
        fn, s, q, extra = cell
        if fn.startswith("hurwitz"):
            extra = (extra,)
        elif fn.startswith("l_series"):
            extra = (direct_character(*extra),)
        try:
            got = getattr(qeuler, fn)(s, *extra, q)
        except self.TYPED:
            return
        with mpmath.workdps(40):
            err = abs(mpmath.mpc(got.value) - mpmath.mpc(*PROBE_REFS[cell]))
        assert err <= got.abs_error_estimate
