"""One table of bad values per argument rule, shared by every module's tests.

Each table holds a boolean, NaN, infinity, a string, ``None`` and a value
below the rule's floor; the integer rules also hold a float where an integer
belongs.  Every public function that takes such an argument must reject each
entry with ``ValidationError``.
"""

import math

# integer >= 1
BAD_BUDGETS = [True, math.nan, math.inf, "1", None, 1.5, 0, -1]
# integer >= 0
BAD_SEEDS = [-1, 1.5, True, "1", None, math.nan, math.inf]
# integer >= 3
BAD_GRID_SIZES = [True, math.nan, math.inf, "5", None, 5.5, 2]
# finite number >= 0
BAD_TOLS = [math.nan, -1e-9, True, math.inf, "0.1", None]
# finite number > 0 (and not 1, which each constructor points to shannon)
BAD_ALPHAS = [0.0, -1.0, math.nan, math.inf, True, "0.5", b"2", None]
