import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH_DIR)

sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO, "src"))
