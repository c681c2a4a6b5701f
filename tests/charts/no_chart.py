# A chart file that defines no callable named chart
def surface(u, v):
    return (u, v, 0.0, 0.0)
