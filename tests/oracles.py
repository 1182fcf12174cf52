"""Reference structures that tests compare the package against, and the
instance strategies that more than one test module draws from."""

import numpy as np
from hypothesis import strategies as st

from coverentropy import DiscreteSpace, Measure, SetFamily
from coverentropy.measure import MASS_TOL


def incidence(fam):
    """Boolean ``(sets, atoms)`` membership matrix of the family ``fam``."""
    m = np.zeros((len(fam), fam.space.n), dtype=bool)
    for i, s in enumerate(fam):
        m[i, list(s.members)] = True
    return m


@st.composite
def covers_with_dust(draw):
    """A measure with some zero-mass atoms under up to five sets, where the
    atoms in no set carry at most ``MASS_TOL`` between them, so the sets
    always form a mu-cover."""
    n = draw(st.integers(min_value=1, max_value=7))
    space = DiscreteSpace(n)
    sets = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=5))
    held = set().union(*sets)
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n))
    total = sum(raw[a] for a in held) or 1.0
    dust = st.one_of(st.just(0.0), st.floats(0.0, MASS_TOL / (2 * n)))
    mass = [raw[a] / total if a in held else draw(dust) for a in range(n)]
    return Measure(space, mass), SetFamily.of(space, sets)
