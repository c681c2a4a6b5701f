# A chart file whose chart is no callable
chart = 3
