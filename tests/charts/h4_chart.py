# The same shape in E^1_1 x H^4 (b1 = b2 = 1, b3 = 0.5): the hyperbolic fiber
# admits no PMCV member, so pmcv fails where biconservativity holds
import math
B1, B2, B3 = 1.0, 1.0, 0.5
B0 = math.sqrt(1.0 + B2 * B2 + B3 * B3)
LAM = math.sqrt(1.0 + B1 * B1) / B2
def chart(u, v):
    return (-B1 * u, B0, B2 * math.cos(LAM * u), B2 * math.sin(LAM * u),
            B3 * math.sin(v / B3), B3 * math.cos(v / B3))
