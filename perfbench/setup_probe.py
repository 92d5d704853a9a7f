"""One set-up measurement, run in a fresh interpreter by run.py.

Times importing cornerwalk from the checkout's src/ and parsing and
validating the given model files, and prints the seconds taken.

    python3 perfbench/setup_probe.py models/fibonacci.txt ...
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cornerwalk

    for path in sys.argv[1:]:
        if not cornerwalk.validate_model(cornerwalk.parse_model_file(path)).passed:
            sys.exit(f"{path} fails validation")
    elapsed = time.perf_counter() - t0
    if not Path(cornerwalk.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported cornerwalk from {cornerwalk.__file__}, not {SRC}")
    print(repr(elapsed))
