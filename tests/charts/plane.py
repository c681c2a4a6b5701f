# A space-like plane: under the warp const:1 it passes every check
import math
S, C = math.sinh(0.8), math.cosh(0.8)
def chart(u, v):
    return (S * u, C * u, v, 0.0)
