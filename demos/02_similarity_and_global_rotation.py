#!/usr/bin/env python3
"""Chain similarity, signed angle profiles, and what a global rotation can do.

The similarity F between two chains is the sum over sites of the cosine of
the angle between corresponding Bloch vectors. A uniform rotation about +z
turns every candidate vector by the same angle 2*chi; the induced gain has
the closed form dF = 2 sin(chi) sum_k sin(theta_k - chi), maximized by the
circular-mean half angle.
"""

import numpy as np

from spinalign import (
    ChainSpec,
    SubsetFunctionKind,
    apply_unitary,
    chi_opt,
    delta_f_planar,
    enumerate_bipartition_subsets,
    global_rotation,
    ground_state,
    similarity_chain,
    similarity_general,
)


def main():
    target = ground_state(ChainSpec(4, 1.0, (0.5, 0.25, 0.0, 0.25))).state
    candidate_spec = ChainSpec(4, 1.0, (-0.5,) * 4)
    candidate = ground_state(candidate_spec).state

    print("=" * 64)
    print("1. Similarity and the signed angle profile")
    print("=" * 64)
    # Chains are compared through their (N, 3) per-site Bloch vectors.
    f0, thetas = similarity_chain(target.bloch, candidate.bloch)
    print(f"F (sum of cosines)   = {f0:.6f}  of a maximum of 4")
    print(f"per-site angles      = {np.round(thetas, 6)}")
    print(f"sum of sines/cosines = {np.sum(np.sin(thetas)):.6f} / {np.sum(np.cos(thetas)):.6f}")
    print("Positive angles mean the candidate vectors lag counterclockwise")
    print("behind the target vectors.")

    print()
    print("=" * 64)
    print("2. Scanning the rotation angle")
    print("=" * 64)
    chi_best = chi_opt(thetas)
    print("   chi      F after rotation   planar formula")
    for chi in np.linspace(0.0, 0.5, 6).tolist() + [chi_best]:
        rotated = apply_unitary(global_rotation(chi, 4), candidate)
        f_chi, _ = similarity_chain(target.bloch, rotated.bloch)
        marker = "  <- chi_opt" if chi == chi_best else ""
        print(f"  {chi:6.4f}   {f_chi:12.6f}     {f0 + delta_f_planar(thetas, chi):12.6f}{marker}")
    print(f"\ncircular-mean optimum: chi_opt = {chi_best:.6f} "
          f"(Bloch vectors turn by 2*chi = {2 * chi_best:.6f})")
    print(f"gain dF = {delta_f_planar(thetas, chi_best):.6f}")

    print()
    print("=" * 64)
    print("3. A purity-based similarity over all bipartitions")
    print("=" * 64)
    subsets = enumerate_bipartition_subsets(4)
    print(f"number of non-empty proper subsets of 4 sites: {len(subsets)} (= 2^4 - 2)")
    same = similarity_general(candidate, candidate, subsets, SubsetFunctionKind.PURITY)
    cross = similarity_general(target, candidate, subsets, SubsetFunctionKind.PURITY)
    rotated = apply_unitary(global_rotation(0.7, 4), candidate)
    cross_rot = similarity_general(target, rotated, subsets, SubsetFunctionKind.PURITY)
    print(f"identical chains:            {same:.12f}  (one point per subset)")
    print(f"target vs candidate:         {cross:.12f}")
    print(f"after any global z-rotation: {cross_rot:.12f}  (purities are unitary-invariant)")


if __name__ == "__main__":
    main()
