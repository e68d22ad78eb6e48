import sys
from pathlib import Path

# The benchmark's modules sit next to run.py, which imports them as top-level names.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
