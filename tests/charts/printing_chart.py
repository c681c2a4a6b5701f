# A space-like plane whose import prints a line: a run that refuses a flag
# before the chart file runs never prints it
print("chart imported")
def chart(u, v):
    return (0.1 * u, u, v, 0.0)
