"""Frozen benchmark inputs and the reference values outputs are checked against.

The parameter panel is written out as 17-digit literals so that a later change
to the fitter cannot shift what the simulate and quadrature workloads receive.
The quadrature references are mpmath values printed by `freeze_refs.py`, which
also compares them with the library (see NOTES.md).
"""


def load_datasets():
    """Both built-in datasets as `Dataset`s, read the way a library user would."""
    from importlib import resources

    import mcgompertz

    out = {}
    for label, fname in (("aarset", "aarset_devices.csv"), ("glass", "glass_fibers.csv")):
        text = (resources.files("mcgompertz.data") / fname).read_text(encoding="utf-8")
        out[label] = mcgompertz.Dataset(
            values=tuple(float(v) for v in text.split()[1:]), label=label)
    return out


# (label, model, parameters).  mcg/mce parameter order: a, b, c, theta[, gamma].
PANEL = (
    # README quick-start point
    ("readme", "mcg", (0.5, 0.8, 2.0, 0.1, 0.5)),
    # aarset mcg optimum: tiny b, so draws reach the deep upper tail
    ("aarset_mcg", "mcg", (
        0.48602506867701145, 0.008027407931889215, 39.077927764506605,
        0.029940972501835417, 0.07574424808702038)),
    # glass mcg optimum: a/c ~ 2e-3, where G^c underflows
    ("glass_mcg", "mcg", (
        0.4500793196655103, 0.042314322674387124, 219.49017482882707,
        7.149867624426224e-06, 8.090210587209212)),
    # aarset McE optimum: exponential base through family.exp_limit_*
    ("aarset_mce", "mce", (
        1.5459549956237353, 0.01547702642987936, 20.182691849005597,
        1.2381119128617442)),
)
# The glass McE fit (b ~ 1e13 ridge, flagged non-converged) is left out of the
# panel on purpose; NOTES.md records why.

# `mcg eval` grid ends at each panel point, Q(0.01) and Q(0.99), frozen like
# the panel.  The library's cdf gave 0.01 and 0.99 at them within 2e-16.
EVAL_GRID = {
    "readme": (0.0011747400418625979, 6.4763235422212935),
    "aarset_mcg": (0.017564471969841094, 94.70959336773242),
    "glass_mcg": (0.47389151682849057, 2.183689369369031),
    "aarset_mce": (0.14175457161007352, 233.24306938076705),
}

# Reference negative log-likelihoods of the default fit.  mcg/bg/kumg are the
# frozen optima of tests/test_inference.py; mce was taken from this code when
# the benchmark was written (the glass value is the known ridge fit).
REF_NLL = {
    "aarset": {"mcg": 217.38457098, "bg": 220.67184117, "kumg": 221.96657422,
               "mce": 236.109950},
    "glass": {"mcg": 10.77838390, "bg": 14.14344746, "kumg": 14.03050801,
              "mce": 14.591805},
}
NLL_TOL = 1e-3

# Relative tolerance (floor 1 in the scale) for numeric integrals and shape
# measures against their frozen references.
QUAD_RTOL = 1e-7

# Printed by freeze_refs.py: op name -> reference.  "value" and "curve" hold
# the mpmath values; "closed" is shannon_closed's (value, fidelity flag) with
# the flag recomputed in mpmath; "series" holds the library's convergence
# flags, with no value because no flag says the value is usable.  Renyi ops
# also hold "truncated", the mpmath integral cut at Q(1 - 1e-10), where the
# library's quadrature panel stops (a known defect, see NOTES.md).
QUAD_REF = {'aarset_mcg.bowley': {'kind': 'curve',
                       'value': [-0.12017508829025406,
                                 -0.12378718787115818,
                                 -0.1278181711558788,
                                 -0.13215090648158137,
                                 -0.13672443000713105,
                                 -0.1415050452002452,
                                 -0.14647350126727215,
                                 -0.15161890246166912,
                                 -0.15693557378629636,
                                 -0.16242133766289132]},
 'aarset_mcg.mgf': {'kind': 'value', 'value': 198.77993085679518},
 'aarset_mcg.mgf_series': {'flags': [False, False], 'kind': 'series'},
 'aarset_mcg.moment1': {'kind': 'value', 'value': 46.13261015840493},
 'aarset_mcg.moment2': {'kind': 'value', 'value': 3161.7950570291327},
 'aarset_mcg.moment3': {'kind': 'value', 'value': 234811.20379014194},
 'aarset_mcg.moment4': {'kind': 'value', 'value': 18085548.928231005},
 'aarset_mcg.moment_series': {'flags': [False], 'kind': 'series'},
 'aarset_mcg.moors': {'kind': 'curve',
                      'value': [1.2823594415115238,
                                1.2915178929994116,
                                1.3023048957283077,
                                1.3146193517017009,
                                1.328501358229848,
                                1.3440803099902134,
                                1.3615591337518707,
                                1.3812162785070377,
                                1.4034191894126888,
                                1.4286480589717085]},
 'aarset_mcg.os_moment': {'kind': 'value', 'value': 26.836788776361473},
 'aarset_mcg.renyi': {'kind': 'value',
                      'truncated': 4.480493917122635,
                      'value': 4.4804970454043636},
 'aarset_mcg.shannon': {'kind': 'value', 'value': 4.316135036870942},
 'aarset_mcg.shannon_closed': {'flag': False, 'kind': 'closed', 'value': -42.324759578663354},
 'glass_mcg.bowley': {'kind': 'curve',
                      'value': [-0.14297315498204713,
                                -0.1657531529757821,
                                -0.19290795233337915,
                                -0.22419853545136012,
                                -0.25921113341875124,
                                -0.29647956231356587,
                                -0.33262921879657964,
                                -0.36285651988712053,
                                -0.3835126523465784,
                                -0.393954663937877]},
 'glass_mcg.mgf': {'kind': 'value', 'value': 2126481.302820321},
 'glass_mcg.mgf_series': {'flags': [False, False], 'kind': 'series'},
 'glass_mcg.moment1': {'kind': 'value', 'value': 1.5081159962936508},
 'glass_mcg.moment2': {'kind': 'value', 'value': 2.375058737819177},
 'glass_mcg.moment3': {'kind': 'value', 'value': 3.8531659197404093},
 'glass_mcg.moment4': {'kind': 'value', 'value': 6.405470466786506},
 'glass_mcg.moment_series': {'flags': [False], 'kind': 'series'},
 'glass_mcg.moors': {'kind': 'curve',
                     'value': [1.3416083965272334,
                               1.4111156300677365,
                               1.4961972693517507,
                               1.5700040186832191,
                               1.5975476272542324,
                               1.5688767902634695,
                               1.5010694886875289,
                               1.4188002914852316,
                               1.3398626419255946,
                               1.270562575315544]},
 'glass_mcg.os_moment': {'kind': 'value', 'value': 1.3932260077791028},
 'glass_mcg.renyi': {'kind': 'value',
                     'truncated': 0.4314642742158801,
                     'value': 0.4314666873701996},
 'glass_mcg.shannon': {'kind': 'value', 'value': 0.15761604598982157},
 'glass_mcg.shannon_closed': {'flag': False, 'kind': 'closed', 'value': -18.958983075450146},
 'readme.bowley': {'kind': 'curve',
                   'value': [0.039367505272662466,
                             0.057771650697071394,
                             0.07159718206922305,
                             0.08125006719594971,
                             0.0877388530688247,
                             0.09201023275222578,
                             0.09478559582053805,
                             0.09657045745739977,
                             0.09770549791467915,
                             0.0984160915684969]},
 'readme.mgf': {'kind': 'value', 'value': 4.7803858918532365},
 'readme.mgf_series': {'flags': [False, False], 'kind': 'series'},
 'readme.moment1': {'kind': 'value', 'value': 2.2662956031352097},
 'readme.moment2': {'kind': 'value', 'value': 8.31026979368951},
 'readme.moment3': {'kind': 'value', 'value': 36.13783102120607},
 'readme.moment4': {'kind': 'value', 'value': 173.6153509214159},
 'readme.moment_series': {'flags': [False], 'kind': 'series'},
 'readme.moors': {'kind': 'curve',
                  'value': [1.0005150380967083,
                            0.9922375577232065,
                            0.9911306477467016,
                            0.9930897109024818,
                            0.995999806573735,
                            0.9989185320160321,
                            1.001480561721494,
                            1.0035838882041774,
                            1.0052387988265643,
                            1.0064979096255362]},
 'readme.os_moment': {'kind': 'value', 'value': 1.1675822822075768},
 'readme.renyi': {'kind': 'value', 'truncated': 1.8493509888413047, 'value': 1.8493555325729012},
 'readme.shannon': {'kind': 'value', 'value': 1.6734677142369654},
 'readme.shannon_closed': {'flag': False, 'kind': 'closed', 'value': 1.6429794606921382}}
