"""The Lanczos recurrence of spectral._lanczos as it held four n-vectors.

M v_j went to its own buffer ``mv`` and was solved into ``w``; alpha_j read
``mv`` and beta_j formed M w in it again.  spectral._lanczos holds three
n-vectors and must return the same coefficients and vectors bit for bit.
"""

import math
from itertools import count

import numpy as np


def four_vector_lanczos(solve, m, coeffs):
    v = np.full(m.size, 1.0 / math.sqrt(float(m.sum())))
    prev, w, mv = np.zeros(m.size), np.empty(m.size), np.empty(m.size)
    beta = 0.0
    for j in count():
        yield v
        solve(np.multiply(m, v, out=mv), out=w)
        prev *= beta
        w -= prev                       # A^-1 M v_j - beta_{j-1} v_{j-1}
        new = j == len(coeffs)
        if new:
            alpha = float(mv @ w)
        else:
            alpha, beta = coeffs[j]
        w -= np.multiply(v, alpha, out=prev)
        if new:
            beta = math.sqrt(float(np.multiply(m, w, out=mv) @ w))
            coeffs.append((alpha, beta))
        if beta > 0.0:
            w /= beta
        prev, v, w = v, w, prev
