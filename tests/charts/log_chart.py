# math.log fails for u <= -0.5: those nodes are degenerate
import math
def chart(u, v):
    return (0.1 * math.log(u + 0.5), u, v, 0.0)
