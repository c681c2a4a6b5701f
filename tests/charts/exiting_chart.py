# A chart file that exits at import
import sys
sys.exit(3)
