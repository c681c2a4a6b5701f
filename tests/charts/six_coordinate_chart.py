# A chart whose points have six coordinates, for a 4-dimensional ambient
def chart(u, v):
    return (0.1 * u, u, v, 0.0, 0.0, 0.0)
