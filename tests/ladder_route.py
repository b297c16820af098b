"""The eigenfunction route to the annihilation eigenstate, shared by the tests.

The paper's third construction takes its ladder operator from the
eigenfunctions: here the lowering matrix of :func:`defosc.ladder_matrix`,
whose superdiagonal over sqrt(d), the su(1,1) level scale, gives the
amplitudes of the lowering operator.  Its eigenstate follows
c_n = alpha c_{n-1} / amp[n-1] from c_0 = 1 and is normalized on the cutoff.
"""

import math

import numpy as np

from defosc import deformation_for, ladder_matrix


def eigenstate_by_ladder(p, alpha, cutoff):
    lowering, _ = ladder_matrix(p, cutoff - 1)
    amp = np.diag(lowering, 1) / math.sqrt(deformation_for(p).su11_scale)
    c = np.concatenate(([1.0 + 0j], np.cumprod(complex(alpha) / amp)))
    return c / np.linalg.norm(c)
