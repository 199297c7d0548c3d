#!/usr/bin/env python3
"""Ground states of small periodic chains and their single-site Bloch vectors.

Walks through the chain Hamiltonian H = sum_k (X_k + b_k Y_k + J Z_k Z_{k+1}),
exact diagonalization, and the geometry of the resulting spin directions.
"""

import numpy as np

from spinalign import (
    ChainSpec,
    bloch_vector,
    build_hamiltonian,
    ground_state,
    mask_from_sites,
    partial_trace,
    product_ground_directions,
)


def main():
    print("=" * 64)
    print("1. A four-site chain with site-dependent fields")
    print("=" * 64)
    spec = ChainSpec(n_sites=4, coupling=1.0, fields=(0.5, -0.25, 0.0, 0.25))
    h = build_hamiltonian(spec)  # a read-only complex array
    dev = np.max(np.abs(h - h.conj().T))
    print(f"Hamiltonian dimension: {len(h)} x {len(h)}, max |H - H†| = {dev:.1e}")

    gs = ground_state(spec)
    print(f"ground energy  E0  = {gs.energy:+.6f}")
    print(f"spectral gap       = {gs.gap:.6f}  (degenerate: {gs.degenerate})")

    print("\nSingle-site Bloch vectors (note: z-components vanish):")
    for k in range(1, 5):
        rho = partial_trace(gs.state, mask_from_sites([k], 4))
        x, y, z = bloch_vector(rho)
        print(f"  site {k}:  ({x:+.6f}, {y:+.6f}, {z:+.2e})"
              f"   |v| = {np.linalg.norm([x, y, z]):.6f}")
    print("The interaction shortens the vectors (|v| < 1: the sites are")
    print("entangled with the rest of the ring) but keeps them in the xy plane.")

    print()
    print("=" * 64)
    print("2. The decoupled limit J = 0 has a closed form")
    print("=" * 64)
    for b in (-0.5, 0.0, 0.5):
        spec0 = ChainSpec(4, 0.0, (b,) * 4)
        v_exact = bloch_vector(partial_trace(ground_state(spec0).state,
                                             mask_from_sites([1], 4)))
        v_closed = product_ground_directions(b)
        dev = np.max(np.abs(v_exact - v_closed))
        print(f"  b = {b:+.2f}:  exact ({v_exact[0]:+.6f}, {v_exact[1]:+.6f}, 0)"
              f"  closed form ({v_closed[0]:+.6f}, {v_closed[1]:+.6f}, 0)"
              f"  |diff| = {dev:.2e}")
    print("At J = 0 every site is the ground state of X + bY, a unit vector")
    print("at angle atan(b) below the -x axis.")

    print()
    print("=" * 64)
    print("3. Energy is invariant under cyclic relabeling of the ring")
    print("=" * 64)
    fields = (0.5, -0.25, 0.0, 0.25)
    for shift in range(4):
        rolled = fields[shift:] + fields[:shift]
        e = ground_state(ChainSpec(4, 1.0, rolled)).energy
        print(f"  fields {rolled}:  E0 = {e:+.12f}")


if __name__ == "__main__":
    main()
