# A chart whose every column is a number: a point, not a surface, so every
# node is degenerate
def chart(u, v):
    return (1.0, 2.0, 3.0, 4.0)
