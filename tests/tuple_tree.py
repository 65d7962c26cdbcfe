"""The entry-tuple form of the run product tree, kept as an oracle.

Each 2x2 matrix is a tuple of four arrays (m00, m01, m10, m11); the
library's sweeps contract stacked (2, 2, ...) arrays instead and must give
the same products bit for bit.  Step coefficients come from the library's
unchanged block generator (odesolve._blocks); everything downstream of it
is the tuple arithmetic.
"""

import numpy as np

from slspectra.odesolve import _blocks, _dS_dw
from slspectra.potential import PI


def mul2(B, A):
    """Product B A of 2x2 matrices stored as entry tuples (m00, m01, m10, m11)."""
    return tuple(B[2 * i] * A[j] + B[2 * i + 1] * A[2 + j] for i in (0, 1) for j in (0, 1))


def compose(B, A):
    """(B, dB)(A, dA) = (BA, dB A + B dA), each pair an 8-tuple of entries."""
    dBA = zip(mul2(B[4:], A[:4]), mul2(B[:4], A[4:]))
    return mul2(B[:4], A[:4]) + tuple(x + y for x, y in dBA)


def transfer(h, gen, weff, C, S, sign):
    """Step matrix entries (m00, m01, m10, m11); sign = -1 gives the inverses."""
    if gen is None:
        b, c = sign * S, -sign * weff * S
        return (C, b, c, C)
    d, b, c = gen[:3]
    if sign < 0.0:
        S = -S
    dS = d * S
    return (C + dS, b * S, c * S, np.subtract(C, dS, out=dS))


def transfer_dmu(h, gen, weff, C, S, sign):
    """Forward step matrix entries followed by the entries of their mu-derivative."""
    T = transfer(h, gen, weff, C, S, 1.0)
    dS = _dS_dw(weff, h, C, S)
    if gen is None:
        dC = -0.5 * h * S
        return T + (dC, dS, -0.5 * (S + h * C), dC)
    d, b, c, e, gamma = gen
    rate = d * (2.0 * e)
    rate += b * gamma
    dS *= rate
    dC = np.multiply(-0.5 * h, S)
    dC *= rate
    ddS, eS = np.multiply(d, dS, out=rate), e * S
    d00 = dC + ddS
    d00 -= eS
    dC -= ddS
    dC += eS
    d10 = c * dS
    d10 -= gamma * S
    return T + (d00, b * dS, d10, dC)


def lifted_steps(h, gen, weff, C, S, sign):
    """Forward run propagators, scaled, and the whole half-turns of F from 0."""
    hyp = weff < 0.0
    if hyp.any():
        r = np.sqrt(-weff[hyp])
        C[hyp], S[hyp] = 1.0, np.tanh(r * np.broadcast_to(h, weff.shape)[hyp]) / r
    T = transfer(h, gen, weff, C, S, sign)
    if np.sqrt(weff.max(initial=0.0)) * h.max() < 3.0:
        return T + (np.zeros_like(weff),)
    turns = np.sqrt(np.maximum(weff * h * h, 0.0)) / PI
    n = np.floor(turns)
    wrong = np.signbit(T[1]) != (n % 2.0 == 1.0)
    n[wrong] += np.where(turns[wrong] - n[wrong] > 0.5, 1.0, -1.0)
    return T + (n,)


def lifted_mul(B, A):
    """The lifted pair of BA from those of B and A, elementwise over stacks."""
    P = mul2(B[:4], A[:4])
    scale = np.maximum.reduce([np.abs(p) for p in P])
    s = np.where(A[1] != 0.0, np.signbit(A[1]), np.signbit(A[3]))
    carry = (B[1] != 0.0) & ((np.signbit(B[1]) ^ s ^ np.signbit(P[1])) | (P[1] == 0.0))
    return tuple(p / scale for p in P) + (A[4] + B[4] + carry,)


@np.errstate(over="ignore", invalid="ignore")
def product(mesh, mus, forward, entries, mul):
    """Whole-mesh product of the run matrices by the pairwise tuple tree, entries of shape (mus,)."""
    M = None
    for E in _blocks(mesh, True, mus, forward, entries):
        while len(E[0]) > 1:
            n = len(E[0])
            P = mul([t[1:n:2] for t in E], [t[0:n - 1:2] for t in E])
            E = P if n % 2 == 0 else [np.concatenate((p, t[-1:])) for p, t in zip(P, E)]
        M = E if M is None else mul(E, M)
    return tuple(m[0] for m in M)


@np.errstate(over="ignore", invalid="ignore")
def nodes(mesh, mus, y0, yp0, forward):
    """y and y' at every node by the doubling scan on entry tuples, shape (nodes, mus)."""
    Y = np.empty((len(mesh.h) + 1, mus.size))
    YP = np.empty_like(Y)
    y, yp = np.full(mus.size, float(y0)), np.full(mus.size, float(yp0))
    Y[0], YP[0], lo = y, yp, 1
    for T in _blocks(mesh, False, mus, forward, transfer):
        P, k = np.array(T), 1
        while k < len(P[0]):
            P[:, k:] = mul2(P[:, k:], P[:, :-k])
            k *= 2
        hi = lo + len(P[0])
        Y[lo:hi] = P[0] * y + P[1] * yp
        YP[lo:hi] = P[2] * y + P[3] * yp
        y, yp, lo = Y[hi - 1], P[2, -1] * y + P[3, -1] * yp, hi
    flip = slice(None, None, 1 if forward else -1)
    return Y[flip], YP[flip]
