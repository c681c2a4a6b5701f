# A chart that raises KeyError at every point
def chart(u, v):
    raise KeyError("k")
