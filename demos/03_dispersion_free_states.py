"""Dispersion-free states and why question-local probabilities fail.

A state maps each question class to [0, 1] subject to normalization,
additivity on compatible pairs, and meet closure of certainty.  Demanding
that repeated equivalent questions agree forces two-valued (dispersion-free)
states.  Each one is the filter above a central atom, so this script reads
them off the center and shows the structural price: lattices with trivial
centers admit none.
"""

from fractions import Fraction

from orthologic import (
    catalog,
    enumerate_dispersion_free,
    is_dispersion_free,
    is_state,
    unary_nogo_certify,
    unary_nogo_evaluate,
)

# The unary no-go: if answers come from a question-local probability, the
# agreement of two equivalent questions is p*q + (1-p)(1-q), which is
# certain only at the deterministic corners.
print("agreement(1/2, 1/2) =", unary_nogo_evaluate("1/2", "1/2"))
print("agreement(2/3, 2/3) =", unary_nogo_evaluate("2/3", "2/3"))
print("certified on the 1/100 grid that =1 only at (0,0) and (1,1):",
      unary_nogo_certify("1/100"))
print()

# A uniform 1/2 assignment is a perfectly fine state on MO2 ...
mo2 = catalog("MO2")
uniform = [Fraction(1, 2)] * mo2.n
uniform[mo2.bottom], uniform[mo2.top] = Fraction(0), Fraction(1)
ok, _ = is_state(mo2, uniform)
print("uniform 1/2 on MO2 is a state:", ok)
print("... but dispersion-free:", is_dispersion_free(mo2, uniform))
print()

# All two-valued states, one per central atom, against the center.
for name in ("B4", "B8", "MO2", "MO3", "MO2xB2"):
    lat = catalog(name)
    report = enumerate_dispersion_free(lat)
    print(
        f"{name:7s} dispersion-free states: {len(report.states)}"
        f"  (center trivial: {report.center_is_trivial})"
    )
    for state in report.states:
        ones = [n for n, v in state.as_mapping(lat).items() if v == 1]
        print("         certain on:", ones)
