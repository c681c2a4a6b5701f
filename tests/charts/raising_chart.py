# A chart file that raises at import
raise RuntimeError("boom")
