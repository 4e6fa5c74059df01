#!/usr/bin/env python3
"""The scalarization identities behind the trace-norm bound, numerically.

Two exhibits. First: min{Tr(WV) : V real symmetric, V >= A + iB} equals
Tr(WA) + TrAbs(WB), checked closed form against the SDP on random triples.
Second: the chain of comparison functionals for weighted tensor instances,
where the SDP value collapses onto the top closed form and dominates the
cheaper relaxations.
"""
import numpy as np

from qbayes.sdpbounds import (appendix_f, f_family_pinned_example,
                              holevo_lemma_sdp_value, holevo_lemma_value,
                              random_lemma_triple)

rng = np.random.default_rng(7)

print("identity: Tr(WA) + TrAbs(WB) vs SDP")
for trial in range(5):
    W, A, B = random_lemma_triple(rng, int(rng.integers(2, 5)))
    closed = holevo_lemma_value(W, A, B)
    sdp = holevo_lemma_sdp_value(W, A, B, 1e-10).primal_value
    print(f"  trial {trial}: closed {closed:12.8f}  sdp {sdp:12.8f}  diff {abs(closed - sdp):.2e}")

W = np.eye(2)
A = np.diag([1.0, 2.0])
B = np.array([[0.0, 0.5], [-0.5, 0.0]])
print(f"\npinned triple: closed {holevo_lemma_value(W, A, B):.6f} (exactly 3 + 2*0.5)")

print("\ncomparison-functional chain on one random tensor instance")
n, d = 2, 3
Wt = np.eye(n) + 0.3 * np.ones((n, n))
G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
S = G @ G.conj().T
S = S / np.trace(S).real
terms = [(1.0, Wt, S)]

# X on C^2 (x) C^3 as a (6, 6) array in np.kron order: block (j, k) is
# X[3j:3j+3, 3k:3k+3]
X = np.empty((n * d, n * d), dtype=complex)
for a in range(n):
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    X[a * d:(a + 1) * d, a * d:(a + 1) * d] = (H + H.conj().T) / 2
off = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
X[:d, d:] = off
X[d:, :d] = off.conj().T

for kind in ("f1", "f2", "f3", "f4", "f5", "f_sdp"):
    print(f"  {kind:6s} {appendix_f(kind, terms, X):.8f}")

pinned = f_family_pinned_example()
print(f"\nblock-symmetric witness: f1 {pinned['f1']:.6f}, f_sdp {pinned['f_sdp']:.6f}")
