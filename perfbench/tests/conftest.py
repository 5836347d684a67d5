import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402

common.pin_environment()
common.load_relmarg()
