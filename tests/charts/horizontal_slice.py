# The slice t = 0 of a warped-flat ambient: a horizontal plane, degenerate
def chart(u, v):
    return (0.0, u, v, 0.0)
