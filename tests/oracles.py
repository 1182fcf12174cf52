"""Reference structures that tests compare the package against."""

import numpy as np


def incidence(fam):
    """Boolean ``(sets, atoms)`` membership matrix of the family ``fam``."""
    m = np.zeros((len(fam), fam.space.n), dtype=bool)
    for i, s in enumerate(fam):
        m[i, list(s.members)] = True
    return m
