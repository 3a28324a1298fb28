"""Tour of the wavelet bases on [0, 1].

Builds the exact Haar system and the boundary-corrected smooth basis,
checks the structural properties the estimators rely on, and writes a few
sampled wavelets to CSV for plotting.  A Haar basis stores no matrix: its
Gram matrix below is taken over the columns that `columns` builds from the
Haar system's definition, and is the identity up to the rounding of
2^(l/2) squared.
"""
import numpy as np

from supnorm import build_basis, WaveletIndex

haar = build_basis("haar", L_max=6, J=12)
smooth = build_basis("boundary-smooth", L_max=6, J=12, order=4)

print("== orthonormality (max |Gram - I|) ==")
print(f"  haar:            {haar.gram_deviation():.2e}  (columns from the definition)")
print(f"  boundary-smooth: {smooth.gram_deviation():.2e}")

print("\n== localisation: max_x sum_k |psi_lk(x)| / 2^(l/2) ==")
print("  level   haar   boundary-smooth")
for l in range(7):
    rh = haar.localisation_sum(l) / 2 ** (l / 2)
    rs = smooth.localisation_sum(l) / 2 ** (l / 2)
    print(f"   {l}      {rh:.3f}   {rs:.3f}")

print("\n== supports shrink like 2^-l ==")
N = 2 ** smooth.resolution
for l in (3, 4, 5, 6):
    v = smooth.function(WaveletIndex(l, 2 ** (l - 1)))
    nz = np.nonzero(np.abs(v) > 1e-9 * np.abs(v).max())[0]
    print(f"  level {l}: interior support diameter = {(nz[-1]-nz[0]+1)/N:.4f} "
          f"(= {(nz[-1]-nz[0]+1)/N * 2**l:.2f} x 2^-{l})")

print("\n== every wavelet has zero mean (constants live in the scaling space) ==")
worst = max(
    abs(smooth.function(WaveletIndex(l, k)).mean())
    for l in range(7) for k in range(2 ** l)
)
print(f"  max |integral psi_lk| = {worst:.2e}")

# plot-ready samples: an interior and a left-edge wavelet at level 4
mids = (np.arange(N) + 0.5) / N
for name, idx in [("interior", WaveletIndex(4, 8)), ("edge", WaveletIndex(4, 0))]:
    path = f"demo_wavelet_{name}.csv"
    np.savetxt(path, np.column_stack([mids, smooth.function(idx)]), fmt="%.17g",
               delimiter=",", header="midpoint,value", comments="")
    print(f"\nwrote {path} (two columns: midpoint, value)")
