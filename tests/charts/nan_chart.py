# NaN past u = 0.5: those nodes are degenerate
import math
def chart(u, v):
    return (0.1 * u, u, v, math.nan if u > 0.5 else 0.0)
