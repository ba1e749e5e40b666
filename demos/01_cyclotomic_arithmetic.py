"""Tour of the exact cyclotomic arithmetic layer.

Every number in this project lives in some Q(zeta_L): roots of unity for the
wreath groups, sqrt(5) for the pentagonal catalog entries, i for the complex
structure on R^4.  Elements are stored in a canonical reduced form, so
equality is structural and values hash -- which is what lets the group
closure and the arrangement lattices run on plain dictionaries.
"""

from fractions import Fraction

from rotref import CycNum, cyclotomic_polynomial, real_imag_parts, zeta_power
from rotref.cyclo import embed, real_sign


def show(label, value):
    print(f"  {label:<28} = {value}")


print("cyclotomic polynomials (reduction moduli):")
for L in (1, 4, 5, 12, 20):
    show(f"Phi_{L}", cyclotomic_polynomial(L))

print("\nroots of unity reduce canonically:")
i = zeta_power(4, 1)
show("zeta_4^2", (i * i).pretty())
show("zeta_5^4 (power basis)", zeta_power(5, 4).pretty())
s = CycNum.zero(5)
for j in range(1, 5):
    s = s + zeta_power(5, j)
show("sum of nontrivial 5th roots", s.pretty())

print("\nfield inverses via the Galois norm: a^-1 = (other conjugates) / N(a):")
a = CycNum.rational(5, 3) + zeta_power(5, 1)
show("a", a.pretty())
show("a * a^-1", (a * a.inv()).pretty())

print("\nconductor towers (Q(zeta_4) inside Q(zeta_8)):")
show("embed(zeta_4, 8)", embed(zeta_power(4, 1), 8).pretty())

print("\nreal/imaginary parts need i = zeta_L^(L/4):")
re, im = real_imag_parts(zeta_power(12, 1))
show("Re zeta_12", re.pretty())
show("Im zeta_12", im.pretty())
show("Re^2 + Im^2", (re * re + im * im).pretty())

print("\nexact signs of real values (one integer pass, its precision fixed by a norm bound):")
sqrt5 = zeta_power(20, 4) - zeta_power(20, 8) - zeta_power(20, 12) + zeta_power(20, 16)
show("sqrt5 * sqrt5", (sqrt5 * sqrt5).pretty())
show("sign(sqrt5 - 2)", real_sign(sqrt5 - CycNum.rational(20, 2)))
show("sign(sqrt5 - 9/4)", real_sign(sqrt5 - CycNum.rational(20, Fraction(9, 4))))
