# A space-like plane whose chart reads NaN where u > 0.5 and v > 0.5
import math
S, C = math.sinh(0.8), math.cosh(0.8)
def chart(u, v):
    if u > 0.5 and v > 0.5:
        return (math.nan,) * 4
    return (S * u, C * u, v, 0.0)
