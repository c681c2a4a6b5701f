# The validated product member (b1 = 1, b3 = 0.5, b2 from the constraint) in
# E^1_1 x S^4, as a bare chart written with math
import math
B1, B3 = 1.0, 0.5
B2 = 1.0 / math.sqrt(12.0)
B0 = math.sqrt(1.0 - B2 * B2 - B3 * B3)
LAM = math.sqrt(1.0 + B1 * B1) / B0
def chart(u, v):
    return (-B1 * u, B0 * math.cos(LAM * u), B0 * math.sin(LAM * u),
            B2, B3 * math.sin(v / B3), B3 * math.cos(v / B3))
