# A chart whose points have one coordinate
def chart(u, v):
    return (u * v + u,)
