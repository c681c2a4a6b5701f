# bicons_e3.py with its height scaled by 1.02: the same rotational surface
# stretched along its axis, which is not biconservative (the negative
# control of bicons_e3.py), in the same boosted hyperplane of
# Minkowski 4-space
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
    return (S * x, CH * x, y, 1.02 * z(u))
