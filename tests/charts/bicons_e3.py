# The non-CMC biconservative rotational surface of E^3 (Caddeo, Montaldo,
# Oniciuc and Piu 2014), profile z(r) at C = 1, in the space-like hyperplane
# of Minkowski 4-space boosted by rapidity 0.8: biconservative, and |H|
# varies, so not PMCV
import math
S, CH = math.sinh(0.8), math.cosh(0.8)
C = 1.0
def z(r):
    root = math.sqrt(C * r ** (2 / 3) - 1.0)
    return 3.0 / (2.0 * math.sqrt(C)) * (
        r ** (1 / 3) * root
        + math.log(math.sqrt(C) * r ** (1 / 3) + root) / math.sqrt(C))
def chart(u, v):
    x, y = u * math.cos(v), u * math.sin(v)
    return (S * x, CH * x, y, z(u))
