"""PCE under random pixel corruption, against centred PCA at the same k.

The paper reports that PCE, whose objective models gaussian noise, is robust
to random pixel corruption.  This demo measures that on a 256 x 400 union of
10 subspaces of dimension 4 (40 samples each), over 5 trials: each trial
corrupts the data, splits it in half per class and scores nearest-neighbour
accuracy on the test half, as ``pce eval`` does.  For each corruption it
prints PCE's accuracy and k at lambda = 0.25 and 1, and PCA's accuracy at each
trial's k.  It also prints the gap sigma_k / sigma_k+1 of the train half and
the factor hi / lo of the lambda interval (lo, hi] = (1/sigma_k^2,
1/sigma_k+1^2] that keeps k, as medians over the trials, and the same two
numbers at the true dimension 40.  A gaussian row is the contrast.

Two more tables test why PCE loses.  At each trial's PCE k, the train half's
SVD gives U_k Sigma_k^-p for p = 1/2 and 0, each scored as above, between
PCE (p = 1: theta up to column signs) and centred PCA.  And the Gavish-Donoho
k of each train half, the count of sigma_i > omega(beta) median(sigma) with
omega(beta) ~ 0.56 beta^3 - 0.95 beta^2 + 1.82 beta + 1.43 for the aspect
ratio beta <= 1 (Gavish and Donoho, IEEE Trans. Inf. Theory 60, 2014), is
printed with PCE's accuracy at that k.

Every table line is printed as a Markdown row; README's "Reproduction status"
quotes them.
"""

import statistics

import numpy as np

import pce
from pce.evaluation import nn_classify, pca_fit, pca_transform

SPEC = pce.SubspaceSpec(ambient=256, subspaces=((4, 40),) * 10)
TRUE_DIM = 40
TRIALS = 5
NOISES = [pce.NoiseSpec("gaussian", 0.01)] + [
    pce.NoiseSpec("pixel", rho) for rho in (0.1, 0.2, 0.3)
]
LAMBDAS = (0.25, 1.0)
POWERS = (0.5, 0.0)  # U_k Sigma_k^-p beside PCE's p = 1: half the whitening, none


def trial_halves(noise, seed):
    """The corrupted train and test halves of one trial, as ``pce eval``
    draws them with noise before the split."""
    ds = pce.generate_union_of_subspaces(SPEC, seed)
    if noise.kind == "pixel":
        noisy = pce.add_pixel_corruption(ds.matrix, noise.rho, seed=seed)
    else:
        noisy = pce.add_gaussian_noise(ds.matrix, noise.rho, seed=seed)
    return pce.split(pce.LabeledDataset(noisy, ds.labels), 0.5, seed)


def score(project, train, test):
    predicted = nn_classify(project(train.matrix), train.labels, project(test.matrix))
    return pce.accuracy(predicted, test.labels)


def gap(spectrum, k):
    """sigma_k / sigma_k+1 and the factor hi / lo of the lambda interval
    (1/sigma_k^2, 1/sigma_k+1^2] over which k does not change."""
    ratio = spectrum[k - 1] / spectrum[k]
    return ratio, ratio**2


def whitened(svd, k, power):
    """y -> (U_k Sigma_k^-power)' y for the SVD of a train half."""
    basis = svd.u[:, :k] / svd.sigma[:k] ** power
    return lambda y: basis.T @ y


def gavish_donoho_k(svd, shape):
    """The count of singular values above omega(beta) times their median."""
    beta = min(shape) / max(shape)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    return int(np.count_nonzero(svd.spectrum > omega * np.median(svd.spectrum)))


def k_range(ks):
    return f"{min(ks)}" if min(ks) == max(ks) else f"{min(ks)}-{max(ks)}"


def label(noise):
    return f"{noise.kind} {noise.rho:g}"


def main():
    print("| noise | lambda | pce accuracy | k | pca accuracy at k "
          "| sigma_k/sigma_k+1 | lambda interval factor |")
    print("|---|---|---|---|---|---|---|")
    truth, whitening, gavish_donoho = [], [], []
    for noise in NOISES:
        halves = [trial_halves(noise, seed) for seed in range(TRIALS)]
        svds = [pce.skinny_svd(train.matrix, right=False) for train, _ in halves]
        for lam in LAMBDAS:
            pce_acc, pca_acc, ks, gaps = [], [], [], []
            powers_acc = [[] for _ in POWERS]
            for (train, test), svd in zip(halves, svds):
                model = pce.fit(train.matrix, lam)
                pca = pca_fit(train.matrix, model.k)
                pce_acc.append(score(lambda y: pce.transform(model, y), train, test))
                pca_acc.append(score(lambda y: pca_transform(pca, y), train, test))
                for acc, power in zip(powers_acc, POWERS):
                    acc.append(score(whitened(svd, model.k, power), train, test))
                ks.append(model.k)
                gaps.append(gap(model.spectrum, model.k))
            ratio, factor = (statistics.median(g) for g in zip(*gaps))
            print(f"| {label(noise)} | {lam:g} | {np.mean(pce_acc):.3f} | {k_range(ks)} "
                  f"| {np.mean(pca_acc):.3f} | {ratio:.3f} | {factor:.3f} |")
            cells = [pce_acc, *powers_acc, pca_acc]
            whitening.append(f"| {label(noise)} | {lam:g} | {k_range(ks)} | "
                             + " | ".join(f"{np.mean(acc):.3f}" for acc in cells) + " |")
        true_gaps = [gap(svd.spectrum, TRUE_DIM) for svd in svds]
        truth.append((noise, *(statistics.median(g) for g in zip(*true_gaps))))
        ks = [gavish_donoho_k(svd, train.matrix.shape) for (train, _), svd in zip(halves, svds)]
        acc = [score(whitened(svd, k, 1.0), train, test)
               for (train, test), svd, k in zip(halves, svds, ks)]
        gavish_donoho.append(f"| {label(noise)} | {k_range(ks)} | {np.mean(acc):.3f} |")
    print()
    print(f"| noise | sigma_{TRUE_DIM}/sigma_{TRUE_DIM + 1} "
          f"| lambda interval factor at k = {TRUE_DIM} |")
    print("|---|---|---|")
    for noise, ratio, factor in truth:
        print(f"| {label(noise)} | {ratio:.3f} | {factor:.3f} |")
    print()
    print("| noise | lambda | k | U_k Sigma_k^-1 (pce) | U_k Sigma_k^-1/2 | U_k "
          "| centred pca |")
    print("|---|---|---|---|---|---|---|")
    print("\n".join(whitening))
    print()
    print("| noise | Gavish-Donoho k | pce accuracy at it |")
    print("|---|---|---|")
    print("\n".join(gavish_donoho))


if __name__ == "__main__":
    main()
