# Time 1 + u/10 under the warp t - 1: the middle report row sits at the time
# where the warp vanishes, and its nodes are degenerate
def chart(u, v):
    return (1.0 + 0.1 * u, 10.0 * u, v, 0.0)
