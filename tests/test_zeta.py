"""Tests for the zeta continuations, L-series, and partial zeta functions."""

from __future__ import annotations

import cmath
import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest

from qeuler import (
    DomainError,
    NearSingularError,
    NonConvergenceError,
    PrecisionPolicy,
    characters_mod,
    euler_zeta_neg_int_exact,
    euler_zeta_q,
    euler_zeta_q_direct,
    generalized_qeuler,
    hurwitz_neg_int_exact,
    hurwitz_zeta_q,
    hurwitz_zeta_q_direct,
    is_primitive,
    l_neg_int_decomposition,
    l_neg_int_exact,
    l_series,
    l_series_direct,
    partial_zeta,
    partial_zeta_direct,
    partial_zeta_neg_int_exact,
    qeuler_higher,
    qeuler_poly_exact,
)
from qeuler._direct import _log_bracket
from qeuler.zeta import _direct_accelerated, _direct_plain

F = Fraction

# High-precision reference values computed once with an independent
# arbitrary-precision evaluation of the defining alternating series.
ZETA_REFS = {
    (2, 0.5): -0.3396340966016850485,
    (3, 0.3): -0.03467793025486268,
}
HURWITZ_REFS = {
    (2, 1.0, 0.5): 1.35853638640674019,
    (2, 1 / 3, 0.3): 5.744987771464149,
    (1.5, 0.4, 0.9): 6.430241252026827,
}


# The grid of the direct-route tests: the four families at q from 0.3 to
# 0.999, real and complex s with Re(s) in [1, 3] and |Im(s)| <= 10.
DIRECT_QS = (0.3, 0.6, 0.9, 0.99, 0.999)
DIRECT_SS = (1.0, 2.5, complex(1, 10), complex(3, -4))
DIRECT_EXTRAS = (
    [("euler", ())]
    + [("hurwitz", x) for x in (1 / 3, 1.0, 2.5)]
    + [("partial", aF) for aF in ((1, 3), (5, 5), (7, 15))]
    + [("lseries", dk) for dk in ((5, 1), (15, 5), (105, 31))]
)
DIRECT_CELLS = [
    (family, s, q, extra) for q in DIRECT_QS for s in DIRECT_SS for family, extra in DIRECT_EXTRAS
]
LARGE_IM_CELL = ("euler", complex(1, 200), 0.99, ())
# [2]**2000 is about e**1385, but each term is tiny: q**(s n) [n]**(-s)
# must be formed in one step
LARGE_S_CELLS = [("euler", 2000, 0.999, ()), ("euler", complex(2000, 1), 0.999, ()),
                 ("lseries", 2000, 0.999, (5, 1))]


# The defining series at each cell, to 30 digits: made by
#     PYTHONPATH=src python3 tests/gen_direct_refs.py
# (term by term in mpmath at 40 digits; see that script).  They agree
# with the perfbench oracle's binomial continuation to 5e-30 relative.
DIRECT_REFS = {
    ('euler', 1.0, 0.3, ()):
        ('-0.319526548425272978630834936454', '0.0'),
    ('hurwitz', 1.0, 0.3, 0.3333333333333333):
        ('2.47907643962169375787391812976', '0.0'),
    ('hurwitz', 1.0, 0.3, 1.0):
        ('1.06508849475090996818564212604', '0.0'),
    ('hurwitz', 1.0, 0.3, 2.5):
        ('0.743421500135630075646540899159', '0.0'),
    ('partial', 1.0, 0.3, (1, 3)):
        ('-0.382762635652408199185320093884', '0.0'),
    ('partial', 1.0, 0.3, (5, 5)):
        ('-0.00221132608343520899318819050069', '0.0'),
    ('partial', 1.0, 0.3, (7, 15)):
        ('-0.000199060531683227224656766431805', '0.0'),
    ('lseries', 1.0, 0.3, (5, 1)):
        ('-0.39675105836618148852225281325', '0.114993656180061919637276090053'),
    ('lseries', 1.0, 0.3, (15, 5)):
        ('-0.397429533071981168495943991184', '-0.0901392052564417676040933446314'),
    ('lseries', 1.0, 0.3, (105, 31)):
        ('-0.308342926272148167333455173992', '0.0514937733822078412834911215217'),
    ('euler', 2.5, 0.3, ()):
        ('-0.0625094146547645502850185518954', '0.0'),
    ('hurwitz', 2.5, 0.3, 0.3333333333333333):
        ('8.43824082657739593923849882179', '0.0'),
    ('hurwitz', 2.5, 0.3, 1.0):
        ('1.26806727640216862734508682599', '0.0'),
    ('hurwitz', 2.5, 0.3, 2.5):
        ('0.578727025281390619631000533694', '0.0'),
    ('partial', 2.5, 0.3, (1, 3)):
        ('-0.0640803279325847382329370242619', '0.0'),
    ('partial', 2.5, 0.3, (5, 5)):
        ('-0.00000015607939050269095048117626388', '0.0'),
    ('partial', 2.5, 0.3, (7, 15)):
        ('-3.77179331470518954722587189492e-10', '0.0'),
    ('lseries', 2.5, 0.3, (5, 1)):
        ('-0.0640867432386045063987839884866', '0.00170778559806524484605997075728'),
    ('lseries', 2.5, 0.3, (15, 5)):
        ('-0.064086750900756072857219693639', '-0.00163942419468266800433900999213'),
    ('lseries', 2.5, 0.3, (105, 31)):
        ('-0.0626621507021555434891150883538', '0.000822493326735555547176217294609'),
    ('euler', (1+10j), 0.3, ()):
        ('-0.333023322283111398061232063965', '-0.26683510271064585303010654526'),
    ('hurwitz', (1+10j), 0.3, 0.3333333333333333):
        ('0.687418628853031061292295074246', '2.76522755706122836742431959701'),
    ('hurwitz', (1+10j), 0.3, 1.0):
        ('1.40672935060523385243207757284', '0.210966908837538116888724387382'),
    ('hurwitz', (1+10j), 0.3, 2.5):
        ('-0.740373294884812936057477979441', '-0.0425820072020240592217586031222'),
    ('partial', (1+10j), 0.3, (1, 3)):
        ('-0.335935280620074328630592583752', '-0.203340720617615009381236708483'),
    ('partial', (1+10j), 0.3, (5, 5)):
        ('-0.00136255538663366482276430489363', '0.00175434395612633027461467922118'),
    ('partial', (1+10j), 0.3, (7, 15)):
        ('-0.000197582517950452694350028397656', '-0.0000242124980263997894453865366299'),
    ('lseries', (1+10j), 0.3, (5, 1)):
        ('-0.222896381813087715430315494278', '-0.192763313801105522934612413566'),
    ('lseries', (1+10j), 0.3, (15, 5)):
        ('-0.428585224844239206787386733104', '-0.18892075304997130288535398886'),
    ('lseries', (1+10j), 0.3, (105, 31)):
        ('-0.285128782786630496746672559578', '-0.276321304534519256158377201433'),
    ('euler', (3-4j), 0.3, ()):
        ('-0.00375036616893124450017040406262', '0.0345027100773843800294694358243'),
    ('hurwitz', (3-4j), 0.3, 0.3333333333333333):
        ('-12.2364539500780235071802595432', '-1.71013035598264602216880887272'),
    ('hurwitz', (3-4j), 0.3, 1.0):
        ('1.28539054753855627778027389983', '0.00613187971845303998704343347264'),
    ('hurwitz', (3-4j), 0.3, 2.5):
        ('0.163629858580443602246796847646', '0.489045405958094587196700001984'),
    ('partial', (3-4j), 0.3, (1, 3)):
        ('-0.0036265026667955489126471119201', '0.0349123956814697510660176792381'),
    ('partial', (3-4j), 0.3, (5, 5)):
        ('-0.00000000602349741898088266253638952487', '-0.00000000229262324468399243655408406314'),
    ('partial', (3-4j), 0.3, (7, 15)):
        ('3.90521519442288167835772926254e-12', '2.55603055252967979440916072363e-12'),
    ('lseries', (3-4j), 0.3, (5, 1)):
        ('-0.00321562107823032167875804820435', '0.0347690413162407853551923879173'),
    ('lseries', (3-4j), 0.3, (15, 5)):
        ('-0.00403661370559695994946559099867', '0.0350452935286365632194393310766'),
    ('lseries', (3-4j), 0.3, (105, 31)):
        ('-0.00353706759303550388002441056355', '0.0344902778099704560755419724398'),
    ('euler', 1.0, 0.6, ()):
        ('-0.71525189568611907139263927691', '0.0'),
    ('hurwitz', 1.0, 0.6, 0.3333333333333333):
        ('3.53153251802049935881105990534', '0.0'),
    ('hurwitz', 1.0, 0.6, 1.0):
        ('1.19208649281019849643712785027', '0.0'),
    ('hurwitz', 1.0, 0.6, 2.5):
        ('0.589466579193840573171777507579', '0.0'),
    ('partial', 1.0, 0.6, (1, 3)):
        ('-0.879932833384579102527888251344', '0.0'),
    ('partial', 1.0, 0.6, (5, 5)):
        ('-0.0503484969364981271854484888673', '0.0'),
    ('partial', 1.0, 0.6, (7, 15)):
        ('-0.018423458696791156429839775931', '0.0'),
    ('lseries', 1.0, 0.6, (5, 1)):
        ('-1.02008608908329905779298628099', '0.509033783453731807461162095386'),
    ('lseries', 1.0, 0.6, (15, 5)):
        ('-1.05224366475843457658789292881', '-0.366550450050322127281057650905'),
    ('lseries', 1.0, 0.6, (105, 31)):
        ('-0.601910078798399368640182924432', '0.270793835860916531524641100096'),
    ('euler', 2.5, 0.6, ()):
        ('-0.413078093509993257039274267792', '0.0'),
    ('hurwitz', 2.5, 0.6, 0.3333333333333333):
        ('16.4553859791393437767291205507', '0.0'),
    ('hurwitz', 2.5, 0.6, 1.0):
        ('1.48133757115492045240036640821', '0.0'),
    ('hurwitz', 2.5, 0.6, 2.5):
        ('0.308407038957139431860785477662', '0.0'),
    ('partial', 2.5, 0.6, (1, 3)):
        ('-0.444804900755333825229315094467', '0.0'),
    ('partial', 2.5, 0.6, (5, 5)):
        ('-0.000333767491772337515289526520576', '0.0'),
    ('partial', 2.5, 0.6, (7, 15)):
        ('-0.0000227899844879893397820588599262', '0.0'),
    ('lseries', 2.5, 0.6, (5, 1)):
        ('-0.447465448055900129001511345241', '0.0448435627989381064757743626075'),
    ('lseries', 2.5, 0.6, (15, 5)):
        ('-0.447552662112312409514750710259', '-0.0384382777832072816965021673238'),
    ('lseries', 2.5, 0.6, (105, 31)):
        ('-0.4122010444532260691316565167', '0.0204164336988880477939150509836'),
    ('euler', (1+10j), 0.6, ()):
        ('-0.508519627759282578002638993572', '-1.14604201402047119051602021783'),
    ('hurwitz', (1+10j), 0.6, 0.3333333333333333):
        ('-4.78282967852901617718134742757', '0.770790370138546885905647764297'),
    ('hurwitz', (1+10j), 0.6, 1.0):
        ('2.08916579770435312095762200679', '-0.0454473691139761786127651666648'),
    ('hurwitz', (1+10j), 0.6, 2.5):
        ('0.525579043191650813907879272247', '0.326380918423122552289264390113'),
    ('partial', (1+10j), 0.6, (1, 3)):
        ('-0.484358422486991610566852992269', '-0.878950044266086002498892982037'),
    ('partial', (1+10j), 0.6, (5, 5)):
        ('0.0392773286497071180739301605291', '0.0348285584511601149162368406373'),
    ('partial', (1+10j), 0.6, (7, 15)):
        ('-0.0146279611428786191233121626523', '0.0112132863729627515038586183039'),
    ('lseries', (1+10j), 0.6, (5, 1)):
        ('-0.0358780750814864793893474469068', '-1.35574140438118351098786410698'),
    ('lseries', (1+10j), 0.6, (15, 5)):
        ('-0.548204918637229442887725720867', '-0.631201017882600234189596376258'),
    ('lseries', (1+10j), 0.6, (105, 31)):
        ('-0.50784848227093608655160170713', '-1.30809939636812262658939307118'),
    ('euler', (3-4j), 0.6, ()):
        ('0.176421609618667383693466833622', '-0.314994276509439990873203755086'),
    ('hurwitz', (3-4j), 0.6, 0.3333333333333333):
        ('-21.670281125736153702894058512', '15.2444503861088442191063327041'),
    ('hurwitz', (3-4j), 0.6, 1.0):
        ('1.67024713431829896960760155987', '0.0635704164492310364026613344666'),
    ('hurwitz', (3-4j), 0.6, 2.5):
        ('-0.198652862629195861786607198274', '0.235392529230900886075325413914'),
    ('partial', (3-4j), 0.6, (1, 3)):
        ('0.157383782365903676207504188776', '-0.308054891968822292386657181484'),
    ('partial', (3-4j), 0.6, (5, 5)):
        ('-0.0000335907492898067997141388875465', '-0.000051387203051636507200096307189'),
    ('partial', (3-4j), 0.6, (7, 15)):
        ('-0.00000133220576605263838388405198219', '0.0000020514592709635755331035581662'),
    ('lseries', (3-4j), 0.6, (5, 1)):
        ('0.161638539561439813185401821755', '-0.291854795340485896631517761714'),
    ('lseries', (3-4j), 0.6, (15, 5)):
        ('0.151517310616820845248818735266', '-0.32472911979650460700883680698'),
    ('lseries', (3-4j), 0.6, (105, 31)):
        ('0.175453240802014587153616236576', '-0.304065305708594086183970195859'),
    ('euler', 1.0, 0.9, ()):
        ('-1.20289165164430169172971074925', '0.0'),
    ('hurwitz', 1.0, 0.9, 0.3333333333333333):
        ('4.63310960596178414097490068506', '0.0'),
    ('hurwitz', 1.0, 0.9, 1.0):
        ('1.33654627960477962450269076374', '0.0'),
    ('hurwitz', 1.0, 0.9, 2.5):
        ('0.49762517990452810535276529712', '0.0'),
    ('partial', 1.0, 0.9, (1, 3)):
        ('-1.45903483665589691018371407274', '0.0'),
    ('partial', 1.0, 0.9, (5, 5)):
        ('-0.204585060649489331310191582682', '0.0'),
    ('partial', 1.0, 0.9, (7, 15)):
        ('-0.156708476958811813537675793188', '0.0'),
    ('lseries', 1.0, 0.9, (5, 1)):
        ('-1.83268867762158129869564694565', '1.09637712249847620292141550987'),
    ('lseries', 1.0, 0.9, (15, 5)):
        ('-1.8860019939671026394301624488', '-0.750264209061451395651352137119'),
    ('lseries', 1.0, 0.9, (105, 31)):
        ('-0.918892661642876753031062922096', '0.799653567548020410778259940251'),
    ('euler', 2.5, 0.9, ()):
        ('-1.28543785116802106033952407907', '0.0'),
    ('hurwitz', 2.5, 0.9, 0.3333333333333333):
        ('26.5339322421619936298431217456', '0.0'),
    ('hurwitz', 2.5, 0.9, 1.0):
        ('1.67280304538414766317162629166', '0.0'),
    ('hurwitz', 2.5, 0.9, 2.5):
        ('0.172285701008495579361571711354', '0.0'),
    ('partial', 2.5, 0.9, (1, 3)):
        ('-1.43369326275712575111244297309', '0.0'),
    ('partial', 2.5, 0.9, (5, 5)):
        ('-0.0139121076076921215055264239745', '0.0'),
    ('partial', 2.5, 0.9, (7, 15)):
        ('-0.00481214197812866919064007004178', '0.0'),
    ('lseries', 2.5, 0.9, (5, 1)):
        ('-1.48105522542058908650308304135', '0.289795197630123028945391842775'),
    ('lseries', 2.5, 0.9, (15, 5)):
        ('-1.48889935341078592826503797423', '-0.226802612066114794350995413748'),
    ('lseries', 2.5, 0.9, (105, 31)):
        ('-1.25021708020715296754346405053', '0.140904092333649949757333082882'),
    ('euler', (1+10j), 0.9, ()):
        ('-2.39496758093333959754036342162', '1.32897873947646910929602458709'),
    ('hurwitz', (1+10j), 0.9, 0.3333333333333333):
        ('-1.89409254732830303761509026633', '-4.69669832829064965598778792412'),
    ('hurwitz', (1+10j), 0.9, 1.0):
        ('2.59925860627946582488735154869', '1.58292451206451038813354010107'),
    ('hurwitz', (1+10j), 0.9, 2.5):
        ('-1.33114498182068078949054455023', '-1.3625031515501327053881803357'),
    ('partial', (1+10j), 0.9, (1, 3)):
        ('-1.08964763956144434778346394758', '1.63305123893942100806876472116'),
    ('partial', (1+10j), 0.9, (5, 5)):
        ('-0.303786376971668022661910765171', '0.190138340155304247079997902235'),
    ('partial', (1+10j), 0.9, (7, 15)):
        ('-0.0518562827517297545724730969945', '-0.187922481421248956992655491637'),
    ('lseries', (1+10j), 0.9, (5, 1)):
        ('0.127100826963184201058135439251', '0.796246809900895529145137219774'),
    ('lseries', (1+10j), 0.9, (15, 5)):
        ('-0.859850137799742336049056965947', '1.83420617455958123934609845241'),
    ('lseries', (1+10j), 0.9, (105, 31)):
        ('-1.26132650547105120957152162027', '0.792765840461317172422674600876'),
    ('euler', (3-4j), 0.9, ()):
        ('-1.4141085807925102208517345546', '-0.573505533363964978770306477761'),
    ('hurwitz', (3-4j), 0.9, 0.3333333333333333):
        ('-20.5107298647782388957518859773', '40.8229800118245307564899143294'),
    ('hurwitz', (3-4j), 0.9, 1.0):
        ('2.09188179710302904528123882888', '-0.075658671816238052834151875456'),
    ('hurwitz', (3-4j), 0.9, 2.5):
        ('-0.146050202505107140434291845343', '0.00711143946458337222532497952597'),
    ('partial', (3-4j), 0.9, (1, 3)):
        ('-1.249894976409541123127993546', '-0.562242443976169297606947032033'),
    ('partial', (3-4j), 0.9, (5, 5)):
        ('-0.000407455423834215623685893539856', '-0.00591855281759293213973666237901'),
    ('partial', (3-4j), 0.9, (7, 15)):
        ('0.00145292313490679436421923592767', '0.000192459366204717402741051899213'),
    ('lseries', (3-4j), 0.9, (5, 1)):
        ('-1.20873046058411585065792883111', '-0.690494137691584443802613496021'),
    ('lseries', (3-4j), 0.9, (15, 5)):
        ('-1.31486286214126267499969870518', '-0.428134555856813074907191656388'),
    ('lseries', (3-4j), 0.9, (105, 31)):
        ('-1.36432192513500943085014188363', '-0.659155764635109409141044923483'),
    ('euler', 1.0, 0.99, ()):
        ('-1.36748368904216357611579570286', '0.0'),
    ('hurwitz', 1.0, 0.99, 0.3333333333333333):
        ('4.9755019333854887769334828959', '0.0'),
    ('hurwitz', 1.0, 0.99, 1.0):
        ('1.38129665559814503877189344437', '0.0'),
    ('hurwitz', 1.0, 0.99, 2.5):
        ('0.477063598995492324030796935321', '0.0'),
    ('partial', 1.0, 0.99, (1, 3)):
        ('-1.64963340768463372583838468623', '0.0'),
    ('partial', 1.0, 0.99, (5, 5)):
        ('-0.269536738414544346718102880224', '0.0'),
    ('partial', 1.0, 0.99, (7, 15)):
        ('-0.219710545337926058379413282024', '0.0'),
    ('lseries', 1.0, 0.99, (5, 1)):
        ('-2.10662510944664393700763751886', '1.29816535738005459265833453714'),
    ('lseries', 1.0, 0.99, (15, 5)):
        ('-2.08949964027352953769539033755', '-0.835006729544504022287442810776'),
    ('lseries', 1.0, 0.99, (105, 31)):
        ('-1.23224143357998832103491414983', '1.25369482313378850964036102696'),
    ('euler', 2.5, 0.99, ()):
        ('-1.68539207207017609549432123786', '0.0'),
    ('hurwitz', 2.5, 0.99, 0.3333333333333333):
        ('29.9816451606823858419760938656', '0.0'),
    ('hurwitz', 2.5, 0.99, 1.0):
        ('1.72827544737129509711984472815', '0.0'),
    ('hurwitz', 2.5, 0.99, 2.5):
        ('0.147004315294958203163174027378', '0.0'),
    ('partial', 2.5, 0.99, (1, 3)):
        ('-1.8923922092339788285188741257', '0.0'),
    ('partial', 2.5, 0.99, (5, 5)):
        ('-0.0288321115572562898408387420842', '0.0'),
    ('partial', 2.5, 0.99, (7, 15)):
        ('-0.0133320435034675525525367190951', '0.0'),
    ('lseries', 2.5, 0.99, (5, 1)):
        ('-1.97590864779030126003095978376', '0.440916129338860505142658173884'),
    ('lseries', 2.5, 0.99, (15, 5)):
        ('-1.99086786997143513656806595952', '-0.339134027272241992403540637262'),
    ('lseries', 2.5, 0.99, (105, 31)):
        ('-1.62200104418223298656007073532', '0.226108080171308275955948449621'),
    ('euler', (1+10j), 0.99, ()):
        ('-1.00910182026579077146855043723', '-1.62223216136558237430544005827'),
    ('hurwitz', (1+10j), 0.99, 0.3333333333333333):
        ('0.0357843124462245149442785473845', '-7.00735511444565012258766957581'),
    ('hurwitz', (1+10j), 0.99, 1.0):
        ('0.849741650580106875271678031782', '1.73261970183592128533515684332'),
    ('hurwitz', (1+10j), 0.99, 2.5):
        ('-1.43813085326662488514180034804', '-0.777595372604106826700842329611'),
    ('partial', (1+10j), 0.99, (1, 3)):
        ('-2.24098642753752197716634792608', '0.223524603160436564010641119012'),
    ('partial', (1+10j), 0.99, (5, 5)):
        ('0.48396124073443971585433489857', '0.0988761397709389008080483043232'),
    ('partial', (1+10j), 0.99, (7, 15)):
        ('-0.142722671566087313161347873077', '0.263195623555748298438662260755'),
    ('lseries', (1+10j), 0.99, (5, 1)):
        ('-2.09023534247698205279036772079', '2.3887172308056320243139103575'),
    ('lseries', (1+10j), 0.99, (15, 5)):
        ('-2.74217521712927760517144609689', '-0.514207281000702519777568733964'),
    ('lseries', (1+10j), 0.99, (105, 31)):
        ('-0.0979146166256687429128200475598', '-0.93910438703818186644160031898'),
    ('euler', (3-4j), 0.99, ()):
        ('-2.12646645933658577692497080243', '0.0447956783149500599370907460954'),
    ('hurwitz', (3-4j), 0.99, 0.3333333333333333):
        ('-17.751209568382243433133345466', '49.5378919245562419066454371861'),
    ('hurwitz', (3-4j), 0.99, 1.0):
        ('2.18793174790844053962086378429', '-0.134209422725865082815971250687'),
    ('hurwitz', (3-4j), 0.99, 2.5):
        ('-0.114595125806029843876984394973', '-0.0248123453789355496006174608627'),
    ('partial', (3-4j), 0.99, (1, 3)):
        ('-1.90701332059264790779677224718', '-0.0994873360421167733790545862893'),
    ('partial', (3-4j), 0.99, (5, 5)):
        ('-0.0156223247808834137899769070042', '-0.0035747694647587308283514982673'),
    ('partial', (3-4j), 0.99, (7, 15)):
        ('0.000611070928556411447047108509105', '-0.00509759295523139731591469314102'),
    ('lseries', (3-4j), 0.99, (5, 1)):
        ('-1.94496658361549280054479982838', '-0.293264255529522066636522231106'),
    ('lseries', (3-4j), 0.99, (15, 5)):
        ('-1.87778507491776751691300059853', '0.162705194267377968794348246175'),
    ('lseries', (3-4j), 0.99, (105, 31)):
        ('-2.13821131238510930430051965193', '-0.116778045173227206592414388451'),
    ('euler', 1.0, 0.999, ()):
        ('-1.38440858947449369377991076759', '0.0'),
    ('hurwitz', 1.0, 0.999, 0.3333333333333333):
        ('5.01005084218784894608658159769', '0.0'),
    ('hurwitz', 1.0, 0.999, 1.0):
        ('1.38579438385835204705780123471', '0.0'),
    ('hurwitz', 1.0, 0.999, 2.5):
        ('0.475138512301746642385166017419', '0.0'),
    ('partial', 1.0, 0.999, (1, 3)):
        ('-1.66912688571584479582633234266', '0.0'),
    ('partial', 1.0, 0.999, (5, 5)):
        ('-0.276482117894958798511581672249', '0.0'),
    ('partial', 1.0, 0.999, (7, 15)):
        ('-0.226228776172889050043510257422', '0.0'),
    ('lseries', 1.0, 0.999, (5, 1)):
        ('-2.13478160188672451648933495008', '1.31898581349569792204193121343'),
    ('lseries', 1.0, 0.999, (15, 5)):
        ('-2.1086265000685147394372752146', '-0.842683587759375361739262492165'),
    ('lseries', 1.0, 0.999, (105, 31)):
        ('-1.27958604587567229107597863538', '1.31931567842914640696605925379'),
    ('euler', 2.5, 0.999, ()):
        ('-1.72945645511223231017269296022', '0.0'),
    ('hurwitz', 2.5, 0.999, 0.3333333333333333):
        ('30.3374004265996583603642428311', '0.0'),
    ('hurwitz', 2.5, 0.999, 1.0):
        ('1.73378767398718795244871833618', '0.0'),
    ('hurwitz', 2.5, 0.999, 2.5):
        ('0.144748807351511429943221334157', '0.0'),
    ('partial', 2.5, 0.999, (1, 3)):
        ('-1.94300959925702856178688142098', '0.0'),
    ('partial', 2.5, 0.999, (5, 5)):
        ('-0.0308011060479232229887531971645', '0.0'),
    ('partial', 2.5, 0.999, (7, 15)):
        ('-0.0145750282886063822456790271628', '0.0'),
    ('lseries', 2.5, 0.999, (5, 1)):
        ('-2.0309678981487761951097593107', '0.458595083793990759417422087461'),
    ('lseries', 2.5, 0.999, (15, 5)):
        ('-2.04659041278353080570527252849', '-0.35205885887692179079050747193'),
    ('lseries', 2.5, 0.999, (105, 31)):
        ('-1.66295678823263028792336963737', '0.236910617824547330577921010088'),
    ('euler', (1+10j), 0.999, ()):
        ('-0.727037635198914145027039298595', '-1.63603533484768435301606907643'),
    ('hurwitz', (1+10j), 0.999, 0.3333333333333333):
        ('0.416588749905499130228872819324', '-7.10980971446190927772737823029'),
    ('hurwitz', (1+10j), 0.999, 1.0):
        ('0.711344325659096697699516008902', '1.64487221671502093998588557204'),
    ('hurwitz', (1+10j), 0.999, 2.5):
        ('-1.44188673139524437147437149297', '-0.705201124721676360056341874747'),
    ('partial', (1+10j), 0.999, (1, 3)):
        ('-2.36472994398870072816211526297', '-0.132735776840541650684665482924'),
    ('partial', (1+10j), 0.999, (5, 5)):
        ('0.277122251866220617648476243852', '0.245596045046290299652179732616'),
    ('partial', (1+10j), 0.999, (7, 15)):
        ('-0.149122999414085393071370371912', '0.0966313635384793278516571069709'),
    ('lseries', (1+10j), 0.999, (5, 1)):
        ('-2.93096366052497947993314097725', '1.93669349733039830752362120797'),
    ('lseries', (1+10j), 0.999, (15, 5)):
        ('-2.30212293410183661224794968079', '-0.223901173185761159306397102455'),
    ('lseries', (1+10j), 0.999, (105, 31)):
        ('0.0506460053687772579124198496303', '-0.244258295076607339992245152237'),
    ('euler', (3-4j), 0.999, ()):
        ('-2.19084006683662509152479154794', '0.130854142856594215782048076885'),
    ('hurwitz', (3-4j), 0.999, 0.3333333333333333):
        ('-17.4084565358050742566897389156', '50.4278759838603164084521827377'),
    ('hurwitz', (3-4j), 0.999, 1.0):
        ('2.19688290580584514232014334953', '-0.140040518016348349816919009401'),
    ('hurwitz', (3-4j), 0.999, 2.5):
        ('-0.11148064343199887695637422434', '-0.0272164774418095603918910116696'),
    ('partial', (3-4j), 0.999, (1, 3)):
        ('-1.97155470503833628149363285207', '-0.0336201769144117291560305462197'),
    ('partial', (3-4j), 0.999, (5, 5)):
        ('-0.0173608042377381621164150615711', '-0.00181164493429200606545822819413'),
    ('partial', (3-4j), 0.999, (7, 15)):
        ('-0.00012999543812680305190220776088', '-0.00581174113696345690875990853203'),
    ('lseries', (3-4j), 0.999, (5, 1)):
        ('-2.01922978241859171556839439532', '-0.233434458496161516886580081355'),
    ('lseries', (3-4j), 0.999, (15, 5)):
        ('-1.92596497121157804051213536726', '0.240804069684555971767199731201'),
    ('lseries', (3-4j), 0.999, (105, 31)):
        ('-2.21229456444420491676857191505', '-0.0372855519109895564349690022026'),
    ('euler', (1+200j), 0.99, ()):
        ('1.35094624323674891697792028454', '1.90344644188488158058403221709'),
    ('euler', 2000, 0.999, ()):
        ('-0.270264650869601377933745029883', '0.0'),
    ('euler', (2000+1j), 0.999, ()):
        ('-0.270264515602030917267226158605', '0.000270399828239122341296494687402'),
    ('lseries', 2000, 0.999, (5, 1)):
        ('-0.270264650869601377933745029883', '8.65321434990004720774517147645e-604'),
}


def direct_character(d, index):
    """Characters of order 4 (mod 5 and 15) and the primitive one of order 12 mod 105."""
    return characters_mod(d)[index]


def direct_id(cell):
    """A test id without spaces, dots or brackets, e.g. lseries-s1+10j-q0_99-105,31."""
    family, s, q, extra = cell
    text = f"{family}-s{s}-q{q}-{extra}"
    return text.translate(str.maketrans({" ": "", "(": "", ")": "", ".": "_"}))


def direct_args(family, extra):
    """Keyword arguments of the private direct sums for one grid cell."""
    if family == "hurwitz":
        return {"x": extra, "n0": 0}
    if family == "partial":
        return {"n0": extra[0], "step": extra[1]}
    if family == "lseries":
        return {"chi": direct_character(*extra)}
    return {}


class TestPrecisionPolicy:
    def test_validation(self):
        with pytest.raises(DomainError):
            PrecisionPolicy(eps=0)
        with pytest.raises(DomainError):
            PrecisionPolicy(max_terms=0)

    def test_defaults(self):
        # every series stops on its proven tail bound: no other knob
        p = PrecisionPolicy()
        assert [f.name for f in dataclasses.fields(p)] == ["eps", "max_terms"]
        assert p.eps == 1e-12 and p.max_terms == 10_000


class TestHurwitzContinuation:
    def test_reference_values(self):
        for (s, x, q), want in HURWITZ_REFS.items():
            got = hurwitz_zeta_q(s, x, q)
            assert got.method == "continuation"
            tol = max(got.abs_error_estimate, 1e-13) * 4
            assert abs(got.value - want) <= tol

    def test_error_estimate_is_honest_against_direct(self):
        for s in (2, 3):
            for q in (0.3, 0.5, 0.9):
                for x in (1.0, 1 / 3, 0.4):
                    a = hurwitz_zeta_q(s, x, q)
                    b = hurwitz_zeta_q_direct(s, x, q)
                    assert abs(a.value - b.value) <= (
                        a.abs_error_estimate + b.abs_error_estimate + 1e-11
                    )

    def test_terminates_exactly_at_negative_integers(self):
        got = hurwitz_zeta_q(-3, 1.0, 0.5)
        assert got.terms_used == 4
        assert got.abs_error_estimate == 0.0

    def test_matches_exact_truncation_at_negative_integers(self):
        for q, r, d in ((0.5, F(1, 2), 1), (0.125, F(1, 2), 3)):
            for m in range(1, 7):
                for a in range(1, d + 1):
                    exact = hurwitz_neg_int_exact(m, r, d, a)
                    got = hurwitz_zeta_q(-m, a / d, q)
                    assert abs(got.value - float(exact)) <= 5e-12 * max(1, abs(exact))

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta_q(2, 0.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta_q(2, -1.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta_q(2, 1.0, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta_q(2, 1.0, 0.0)

    def test_near_singular_denominator(self):
        # 1 + q**s = 0 at s = i*pi/ln q: the j = 0 denominator collapses
        q = 0.5
        s = complex(0, math.pi / math.log(q))
        with pytest.raises(NearSingularError) as info:
            hurwitz_zeta_q(s, 1.0, q)
        assert info.value.term_index == 0

    def test_near_singular_interior_term(self):
        q = 0.5
        s = complex(-1, math.pi / math.log(q))
        with pytest.raises(NearSingularError) as info:
            hurwitz_zeta_q(s, 1.0, q)
        assert info.value.term_index == 1

    def test_non_convergence_carries_partial(self):
        policy = PrecisionPolicy(max_terms=5)
        with pytest.raises(NonConvergenceError) as info:
            hurwitz_zeta_q(2, 1.0, 0.9, policy)
        partial = info.value.partial
        assert partial is not None
        assert partial.terms_used == 5
        assert cmath.isfinite(partial.value)

    def test_tail_below_the_smallest_double_ends_in_the_head(self):
        # K = 51, but the second head term, 1.99 q**2000 [2]**-2000, is 0 in
        # double, and so is the tail bound after it: the value 1.99 is the first term
        got = hurwitz_zeta_q(2000, 1, 0.99)
        assert got.value == pytest.approx(1.99, rel=1e-15)
        assert got.terms_used == 2

    def test_unit_bracket_has_log_exactly_zero(self):
        # ln [1] is expm1(ln q) / expm1(ln q), one number over itself; the
        # difference ln(1 - q) - log1p(-q) of two roundings is not 0 in
        # general, and 0.99**-2000 magnifies it in the second head term above
        qs = [k / 1000 for k in range(1, 1000)] + [1 - 2.0**-k for k in range(10, 53, 3)]
        for q in qs:
            log_q = math.log(q)
            assert _log_bracket(1, log_q, math.expm1(log_q)) == 0.0, q

    def test_tiny_positive_real_part_runs_the_continuation(self):
        # K = 15 since Re(s) > 0, but q**Re(s) rounds to 1: the head has no
        # finite tail bound and the continuation at x + K decides the stop
        got = hurwitz_zeta_q(1e-20, 1, 0.9)
        assert got.value == pytest.approx(hurwitz_zeta_q(0, 1, 0.9).value, abs=1e-15)
        assert got.abs_error_estimate < 1e-15

    def test_non_finite_term_stops_the_series(self):
        # (1-q)**s underflows to 0 while C(s+j-1, j) overflows: term 220 is NaN
        with pytest.raises(NonConvergenceError, match="term 220 is non-finite") as info:
            hurwitz_zeta_q(2000, 1, 0.5)
        partial = info.value.partial
        assert partial.terms_used == 220
        assert partial.value == 0


class TestShiftedContinuation:
    """The q -> 1 and small-x cells, where the plain continuation needs
    about ln(1/eps) / (x (1-q)) terms and used to exhaust max_terms.

    References: mpmath at 30 digits with the float arguments taken
    exactly, summing the unshifted binomial continuation until its terms
    fall below 1e-40 (33,507 to 1,059,717 terms); mpmath's ``nsum`` of the
    defining series agrees with each to within 2e-27.
    """

    CELLS = [
        (hurwitz_zeta_q, (3, 1 / 3, 0.99), 52.48935966096596838845149),
        (euler_zeta_q, (0.5, 0.999), -1.208699999462737308624),
        (hurwitz_zeta_q, (2 + 1j, 1 / 3, 0.999),
         complex(7.296806831946204501062623, 16.1570860603370479548719)),
        (hurwitz_zeta_q, (2, 1, 0.9999), 1.644877684014622716532454),
        (hurwitz_zeta_q, (0.5, 1, 0.9999), 1.209748036850174165874498),
    ]

    @pytest.mark.parametrize("fn,args,ref", CELLS, ids=[str(c[1]) for c in CELLS])
    def test_reference_cells_in_few_terms(self, fn, args, ref):
        got = fn(*args)
        assert got.method == "continuation"
        # the plain series needs over 10,000 terms at every one of these cells
        assert got.terms_used <= 1500
        assert abs(got.value - ref) <= got.abs_error_estimate + 1e-12 * max(1, abs(ref))

    @pytest.mark.parametrize("s", [0.5, 2 + 1j])
    def test_partition_sums_to_zeta_near_one(self, s):
        # each class runs at base q**F with x = a/F, so the shifts differ
        q, F = 0.999, 5
        parts = [partial_zeta(s, a, F, q) for a in range(1, F + 1)]
        whole = euler_zeta_q(s, q)
        err = sum(p.abs_error_estimate for p in parts) + whole.abs_error_estimate
        assert abs(sum(p.value for p in parts) - whole.value) <= err + 1e-11

    def test_head_counts_toward_max_terms(self):
        policy = PrecisionPolicy(max_terms=100)
        with pytest.raises(NonConvergenceError) as info:
            hurwitz_zeta_q(2, 1, 0.9999, policy)
        assert info.value.partial.terms_used == 100


class TestHurwitzDirect:
    def test_reference_values(self):
        for (s, x, q), want in HURWITZ_REFS.items():
            got = hurwitz_zeta_q_direct(s, x, q)
            assert got.method == "direct"
            assert abs(got.value - want) <= 1e-11

    def test_rejects_left_of_one(self):
        with pytest.raises(DomainError):
            hurwitz_zeta_q_direct(0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta_q_direct(-2, 1.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta_q_direct(complex(0.99, 5), 1.0, 0.5)

    @pytest.mark.parametrize("s", [2000, complex(2000, 1)])
    def test_term_beyond_double_range_raises_overflow(self, s):
        # the n = 0 term, 1.5 [0.1]_q**-2000, is about 1e1746: a typed
        # OverflowError naming its index, not a bare "math range error"
        with pytest.raises(OverflowError, match="term n = 0 of the defining series"):
            hurwitz_zeta_q_direct(s, 0.1, 0.5)


def direct_ref(cell):
    return mpmath.mpc(*DIRECT_REFS[cell])


def within_bound(got, cell):
    with mpmath.workdps(40):
        return abs(mpmath.mpc(got.value) - direct_ref(cell)) <= got.abs_error_estimate


class TestDirectSums:
    """The two sums behind the ``*_direct`` routes, called directly: the
    plain stream and the CRVZ-accelerated classes.  Each reports
    truncation plus rounding, and must hold that bound at every cell."""

    # the plain stream needs up to 28,310 terms at q = 0.999
    PLAIN_POLICY = PrecisionPolicy(max_terms=100_000)

    @pytest.mark.parametrize("cell", DIRECT_CELLS, ids=[direct_id(c) for c in DIRECT_CELLS])
    def test_plain_and_accelerated_hold_their_bounds(self, cell):
        family, s, q, extra = cell
        kwargs = direct_args(family, extra)
        plain = _direct_plain(complex(s), q, self.PLAIN_POLICY, **kwargs)
        fast = _direct_accelerated(complex(s), q, PrecisionPolicy(), **kwargs)
        assert plain.method == fast.method == "direct"
        assert within_bound(plain, cell)
        assert within_bound(fast, cell)

    def test_large_imaginary_part_holds_its_bound(self):
        # the accelerated bound's W grows like (1-q)**(Re(s) - |s|) here,
        # so the cost model may pick either sum; whichever runs must hold
        # its bound
        got = euler_zeta_q_direct(complex(1, 200), 0.99)
        assert within_bound(got, LARGE_IM_CELL)

    def test_cost_model_keeps_the_plain_stream_where_it_is_shorter(self):
        # 48 classes mod 105 cost at least 48 accelerated terms; the plain
        # stream needs 11 at q = 0.3 and 6,611 at q = 0.999
        chi = direct_character(105, 31)
        assert l_series_direct(2.5, chi, 0.3).terms_used < 48
        assert l_series_direct(2.5, chi, 0.999).terms_used <= 48 * 25

    def test_large_s_ends_after_the_first_term(self):
        # the tail bound after n = 1, |t_1| q**2000 / (1 - q**2000), is far
        # below eps; the next term would form [2]**2000, which overflows
        got = euler_zeta_q_direct(2000, 0.9)
        assert got.terms_used == 1
        # mpmath at 40 digits, the defining series at q = float(0.9)
        assert abs(got.value - -5.8046024339374535e-92) <= got.abs_error_estimate

    @pytest.mark.parametrize("cell", LARGE_S_CELLS, ids=[direct_id(c) for c in LARGE_S_CELLS])
    def test_large_s_near_one_holds_its_bound(self, cell):
        family, s, q, extra = cell
        if family == "lseries":
            got = l_series_direct(s, direct_character(*extra), q)
        else:
            got = euler_zeta_q_direct(s, q)
        assert within_bound(got, cell)

    @pytest.mark.parametrize("q", [0.3, 0.99])  # the plain stream, the accelerated sum
    def test_modulus_one_character_is_the_zeta_series(self, q):
        got = l_series_direct(2.5, characters_mod(1)[0], q)
        assert got.value == pytest.approx(euler_zeta_q_direct(2.5, q).value, rel=1e-14)

    def test_large_s_underflowing_value_is_zero(self):
        # the first term, 1.5 * 0.5**2000, underflows, and so does its tail
        got = l_series_direct(2000, direct_character(5, 1), 0.5)
        assert got.value == 0 and got.terms_used == 1

    @pytest.mark.parametrize("family,fn", [
        ("euler", euler_zeta_q_direct),
        ("hurwitz", hurwitz_zeta_q_direct),
        ("partial", partial_zeta_direct),
    ])
    def test_q_near_one_in_few_terms(self, family, fn):
        # the plain stream needs 240 to 28,310 terms at these 28 cells, and
        # more than the default max_terms of 10,000 at 8 of them
        for cell in DIRECT_CELLS:
            fam, s, q, extra = cell
            if fam != family or q != 0.999:
                continue
            args = (s, extra, q) if family == "hurwitz" else (s, *extra, q)
            got = fn(*args)
            assert got.terms_used <= 200
            assert within_bound(got, cell)


def continuation(cell):
    """The continuation route of ``euler_zeta_q`` and its kin at one grid cell."""
    family, s, q, extra = cell
    if family == "euler":
        return euler_zeta_q(s, q)
    if family == "hurwitz":
        return hurwitz_zeta_q(s, extra, q)
    if family == "partial":
        return partial_zeta(s, *extra, q)
    return l_series(s, direct_character(*extra), q)


class TestContinuationBound:
    """The continuation stops on a proven tail bound, so it must hold that
    bound at every cell of the direct-route grid; 8 u max(1, |ref|) is the
    rounding of the terms and their sum, which the bound leaves out."""

    U = 2.0**-53

    @pytest.mark.parametrize("cell", DIRECT_CELLS, ids=[direct_id(c) for c in DIRECT_CELLS])
    def test_continuation_holds_its_bound(self, cell):
        got = continuation(cell)
        assert got.method == "continuation"
        ref = direct_ref(cell)
        with mpmath.workdps(40):
            err = abs(mpmath.mpc(got.value) - ref)
            assert err <= got.abs_error_estimate + 8 * self.U * max(1, abs(ref))


class TestHurwitzExact:
    def test_equals_polynomial_values(self):
        for r in (F(1, 2), F(1, 3)):
            for d in (1, 3, 5):
                for m in range(1, 7):
                    for a in range(d + 1):
                        assert hurwitz_neg_int_exact(m, r, d, a) == qeuler_poly_exact(
                            m, r, d, a
                        )
        # a size at which the exact sums are large
        for a in range(6):
            assert hurwitz_neg_int_exact(60, F(2, 3), 5, a) == qeuler_poly_exact(60, F(2, 3), 5, a)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            hurwitz_neg_int_exact(0, F(1, 2), 1, 1)
        with pytest.raises(DomainError):
            hurwitz_neg_int_exact(1, F(1, 2), 1, -1)
        with pytest.raises(DomainError):
            hurwitz_neg_int_exact(1, F(3, 2), 1, 1)
        with pytest.raises(DomainError):
            hurwitz_neg_int_exact(1, F(1, 2), 0, 1)


class TestEulerZeta:
    def test_reference_values(self):
        for (s, q), want in ZETA_REFS.items():
            cont = euler_zeta_q(s, q)
            direct = euler_zeta_q_direct(s, q)
            assert abs(cont.value - want) <= 1e-12
            assert abs(direct.value - want) <= 1e-12

    def test_interpolates_qeuler_numbers_exactly(self):
        for q in (F(1, 3), F(1, 2), F(2, 3)):
            for m in range(1, 21):
                assert euler_zeta_neg_int_exact(m, q) == qeuler_higher(m, 1, q)
        # a size at which the exact sums are large, next to q = 1 and away from it
        for q in (F(9999, 10000), F(2, 3)):
            assert euler_zeta_neg_int_exact(60, q) == qeuler_higher(60, 1, q)

    def test_pinned_negative_values(self):
        assert euler_zeta_neg_int_exact(1, F(1, 2)) == F(-1, 2)
        assert euler_zeta_neg_int_exact(2, F(1, 2)) == F(1, 5)

    def test_sign_boundary_at_zero(self):
        # the continuation at s = 0 lands on -(1+q)/2, the negative of E_0
        for q in (F(1, 3), F(1, 2)):
            assert euler_zeta_neg_int_exact(0, q) == -(1 + q) / 2
            assert euler_zeta_neg_int_exact(0, q) == -qeuler_higher(0, 1, q)
        got = euler_zeta_q(0, 0.5)
        assert got.value == pytest.approx(-0.75, abs=1e-13)

    def test_continuation_matches_exact_at_negative_integers(self):
        for q, qx in ((0.3, F(3, 10)), (0.5, F(1, 2))):
            for m in range(7):
                exact = euler_zeta_neg_int_exact(m, qx)
                got = euler_zeta_q(-m, q)
                assert abs(got.value - float(exact)) <= 5e-12 * max(1, abs(exact))

    def test_direct_rejects_left_of_one(self):
        with pytest.raises(DomainError):
            euler_zeta_q_direct(0, 0.5)

    def test_exact_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            euler_zeta_neg_int_exact(-1, F(1, 2))
        with pytest.raises(DomainError):
            euler_zeta_neg_int_exact(1, F(3, 2))


class TestMethodAgreement:
    SS = (2, 3, complex(2, 1), complex(1.5, -2))
    QS = (0.3, 0.5, 0.9)

    def test_zeta_routes_agree(self):
        for s in self.SS:
            for q in self.QS:
                a = euler_zeta_q(s, q)
                b = euler_zeta_q_direct(s, q)
                assert abs(a.value - b.value) <= 1e-8 * max(1, abs(b.value))

    def test_hurwitz_routes_agree(self):
        for s in self.SS:
            for q in self.QS:
                for x in (1.0, 1 / 3, 0.4):
                    a = hurwitz_zeta_q(s, x, q)
                    b = hurwitz_zeta_q_direct(s, x, q)
                    assert abs(a.value - b.value) <= 1e-8 * max(1, abs(b.value))

    def test_lseries_routes_agree(self):
        chars = [characters_mod(3)[1], characters_mod(5)[1], characters_mod(5)[2]]
        for s in self.SS:
            for q in self.QS:
                for chi in chars:
                    a = l_series(s, chi, q)
                    b = l_series_direct(s, chi, q)
                    assert abs(a.value - b.value) <= 1e-8 * max(1, abs(b.value))


class TestLSeries:
    def test_modulus_one_is_plain_zeta(self):
        one = characters_mod(1)[0]
        for s in (2, complex(2, 1)):
            for q in (0.3, 0.5):
                a = l_series(s, one, q)
                b = euler_zeta_q(s, q)
                assert a.value == pytest.approx(b.value, abs=1e-15)

    def test_quadratic_interpolation_exact(self):
        for chi in (characters_mod(3)[1], characters_mod(5)[2]):
            for r in (F(1, 2), F(1, 3)):
                for k in range(1, 7):
                    lhs = l_neg_int_decomposition(k, chi, r)
                    rhs = l_neg_int_exact(k, chi, r)
                    assert isinstance(lhs, F) and isinstance(rhs, F)
                    assert lhs == rhs
        # the real primitive character mod 105: 48 classes with chi(a) != 0 per route
        chi = next(c for c in characters_mod(105) if c.order == 2 and is_primitive(c))
        lhs = l_neg_int_decomposition(10, chi, F(1, 2))
        assert isinstance(lhs, F) and lhs == generalized_qeuler(10, chi, F(1, 2))

    def test_complex_interpolation_close(self):
        for chi in (characters_mod(5)[1], characters_mod(5)[3]):
            for k in range(1, 7):
                lhs = l_neg_int_decomposition(k, chi, F(1, 2))
                rhs = l_neg_int_exact(k, chi, F(1, 2))
                assert abs(lhs - rhs) <= 1e-12 * max(1, abs(rhs))

    def test_continuation_hits_exact_values(self):
        chi = characters_mod(3)[1]
        for k in range(1, 6):
            exact = l_neg_int_exact(k, chi, F(1, 2))
            got = l_series(-k, chi, 0.5)
            assert abs(got.value - float(exact)) <= 1e-10 * max(1, abs(exact))

    def test_continuation_hits_generalized_for_complex_chi(self):
        for chi in (characters_mod(5)[1], characters_mod(5)[3]):
            for k in range(1, 7):
                want = generalized_qeuler(k, chi, F(1, 2))
                got = l_series(-k, chi, 0.5)
                assert abs(got.value - want) <= 1e-9 * max(1, abs(want))

    def test_rejects_bad_arguments(self):
        chi = characters_mod(3)[1]
        with pytest.raises(DomainError):
            l_series(2, "chi", 0.5)
        with pytest.raises(DomainError):
            l_series_direct(0.5, chi, 0.5)
        with pytest.raises(DomainError):
            l_neg_int_exact(0, chi, F(1, 2))
        with pytest.raises(DomainError):
            l_neg_int_decomposition(1, chi, F(3, 2))


class TestPartialZeta:
    def test_partition_sums_to_zeta_numerically(self):
        q = 0.5
        for FF in (3, 5):
            total = sum(partial_zeta(2, a, FF, q).value for a in range(1, FF + 1))
            whole = euler_zeta_q(2, q).value
            assert abs(total - whole) <= 1e-10

    def test_partition_exact_at_negative_integers(self):
        for r in (F(1, 2), F(1, 3)):
            for FF in (3, 5):
                for n in range(1, 6):
                    total = sum(
                        (partial_zeta_neg_int_exact(n, a, FF, r) for a in range(1, FF + 1)),
                        F(0),
                    )
                    assert total == euler_zeta_neg_int_exact(n, r)

    def test_continuation_matches_exact_decomposition(self):
        for n in range(1, 6):
            for a in (1, 2, 3):
                exact = partial_zeta_neg_int_exact(n, a, 3, F(1, 2))
                got = partial_zeta(-n, a, 3, 0.5)
                assert abs(got.value - float(exact)) <= 1e-12 * max(1, abs(exact))

    def test_direct_route_agrees(self):
        for a in (1, 2, 3):
            b = partial_zeta(2, a, 3, 0.5)
            d = partial_zeta_direct(2, a, 3, 0.5)
            assert abs(b.value - d.value) <= 1e-10

    def test_final_class_holds_multiples(self):
        # a = F is allowed and picks up n = F, 2F, ...
        got = partial_zeta_direct(2, 3, 3, 0.5)
        assert cmath.isfinite(got.value)

    def test_rejects_bad_classes(self):
        for bad_a, bad_F in ((0, 3), (4, 3), (-1, 5), (1, 1), (2, 4)):
            with pytest.raises(DomainError):
                partial_zeta(2, bad_a, bad_F, 0.5)
            with pytest.raises(DomainError):
                partial_zeta_neg_int_exact(1, bad_a, bad_F, F(1, 2))

    def test_exact_rejects_nonpositive_degree(self):
        with pytest.raises(DomainError):
            partial_zeta_neg_int_exact(0, 1, 3, F(1, 2))
