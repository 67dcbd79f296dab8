"""Self-check suite: symmetry identities, enumeration counts, oracle ties.

Every check returns a CheckResult with the measured worst deviation, so
failures carry numbers instead of bare booleans. The same functions back the
`verify` CLI subcommand and the acceptance tests.

The fourteen symmetry identities run through one loop, _worst_deviations: a
case function draws one random operating point (M in {2, 4, 8}, K = 2M or
3M, L in 2..4 for blocks, SNR from -10 to 30 dB) and the random values of its
identities, and returns each identity's relative deviation on it; the loop
keeps the worst of each over the instances. The scalar case compares
quadrature probabilities, the block case phase-averaged block probabilities,
and the marginal case brute-force marginals, each the phase-grid mean over
all M^L inputs of the per-phase kernel product (_phase_marginal).

Naming scheme for the checks:

* scalar-shift      P(z|x,phi) invariant when z and phi advance one sector
* scalar-step       P(z|x,phi) invariant when x steps and z jumps a sectors
* scalar-rebase     conditioning on x equals conditioning on 0 after z - a*x
* scalar-residue    conditioning reduces to the residue z mod a
* block-shift       P(z|x) invariant under constant addition to z
* block-permute     P(z|x) invariant under a common permutation of z and x
* block-rebase      P(z|x) = P(z - a*x | all-zero input)
* block-residue     P(z|x) = P(z mod a | x - quotient)
* block-reflect     P(z|x) = P(-z-1 mod K | -x mod M), since the offset
                    density is even and the phase mean absorbs
                    phi -> -phi - 2*theta0
* marginal-shift    P(z) invariant under constant addition
* marginal-permute  P(z) invariant under permutation
* marginal-residue  P(z) = P(z mod a)
* marginal-reflect  P(z) = P(-z-1 mod K)
* marginal-period   P(z | phi) is 2*pi/M-periodic in phi (brute-force per phase)
* entropy-constant  H(Z|x) does not depend on x (brute-force per input)
* kernel-fill       kernel table cells equal adaptive-quadrature probabilities
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import _entropy_terms, block_probs_all_outputs, mutual_information
from .combinatorics import input_class_count, output_class_arrays
from .core import _CHUNK_ELEMENTS, TWO_PI, SystemConfig
from .transition import block_conditional, kernel_for, sector_probability

SYMMETRY_TOL = 1e-9
ORACLE_TOL = 1e-9
ENTROPY_TOL = 1e-9

# the random corpus: M-PSK orders, sectors per symbol step (a = K/M), block
# lengths (the marginal identities enumerate all M^L inputs) and SNRs in dB
_MS = (2, 4, 8)
_AS = (2, 3)
_LS = (2, 3, 4)
_SNRS_DB = (-10.0, 0.0, 6.0, 12.0, 20.0, 30.0)


@dataclass(frozen=True)
class CheckResult:
    """One verification outcome: worst observed deviation vs its tolerance."""

    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"{status} {self.name}: max deviation {self.deviation:.3e}"
            f" vs tolerance {self.tolerance:.1e}{extra}"
        )


def _rel_dev(p: float, q: float) -> float:
    scale = max(abs(p), abs(q))
    return abs(p - q) / scale if scale > 0 else 0.0


def _draw_config(rng: np.random.Generator, L: int | None = None) -> SystemConfig:
    M = int(rng.choice(_MS))
    return SystemConfig(
        M=M,
        K=M * int(rng.choice(_AS)),
        L=int(rng.choice(_LS)) if L is None else L,
        snr_db=float(rng.choice(_SNRS_DB)),
    )


# ---- symmetry identities -----------------------------------------------------
#
# Each case draws all of an instance's random values before it evaluates
# anything, so the stream of draws does not depend on what is evaluated.


def _scalar_case(rng: np.random.Generator) -> dict[str, float]:
    cfg = _draw_config(rng, L=1)
    K, M, a = cfg.K, cfg.M, cfg.a
    z = int(rng.integers(K))
    x = int(rng.integers(M))
    i = int(rng.integers(1, K))
    phi = float(rng.uniform(0.0, TWO_PI))
    j = int(rng.integers(1, M))
    sides = {
        "scalar-shift": ((z + i) % K, x, phi + i * TWO_PI / K),
        "scalar-step": ((z + j * a) % K, (x + j) % M, phi),
        "scalar-rebase": ((z - a * x) % K, 0, phi),
        "scalar-residue": (z % a, (x - z // a) % M, phi),
    }
    base = sector_probability(z, x, phi, cfg)
    return {name: _rel_dev(base, sector_probability(*zxp, cfg)) for name, zxp in sides.items()}


def _block_case(rng: np.random.Generator) -> dict[str, float]:
    cfg = _draw_config(rng)
    K, M, L, a = cfg.K, cfg.M, cfg.L, cfg.a
    z = rng.integers(K, size=L)
    x = rng.integers(M, size=L)
    i = int(rng.integers(1, K))
    perm = rng.permutation(L)
    sides = {
        "block-shift": ((z + i) % K, x),
        "block-permute": (z[perm], x[perm]),
        "block-rebase": ((z - a * x) % K, np.zeros(L, dtype=np.int64)),
        "block-residue": (z % a, (x - z // a) % M),
        "block-reflect": ((-z - 1) % K, (-x) % M),
    }
    base = block_conditional(z, x, cfg)
    return {name: _rel_dev(base, block_conditional(*zx, cfg)) for name, zx in sides.items()}


def _phase_marginal(z: np.ndarray, config: SystemConfig) -> np.ndarray:
    """P(z | phi_i) on the kernel's phase grid, by brute force: the mean over
    all M^L inputs x (in itertools.product order) of prod_l table[z_l - a*x_l].

    Inputs are multiplied in blocks of _CHUNK_ELEMENTS // n_phi rows (at
    least one), and the block sums are summed, so memory stays O(n_phi)
    however many inputs there are.
    """
    table = kernel_for(config).table
    inputs = np.indices((config.M,) * config.L).reshape(config.L, -1).T
    rows = (z[None, :] - config.a * inputs) % config.K
    chunk = max(1, _CHUNK_ELEMENTS // table.shape[1])
    total = np.zeros(table.shape[1])
    for lo in range(0, len(rows), chunk):
        block = rows[lo : lo + chunk]
        acc = table[block[:, 0]]
        for l in range(1, config.L):
            acc *= table[block[:, l]]
        total += acc.sum(axis=0)
    return total / len(rows)


def _marginal_case(rng: np.random.Generator) -> dict[str, float]:
    """P(z) is the phase mean of P(z | phi). A rotation by 2*pi/M is the
    input shift x -> x + 1, which the mean over all inputs does not see, so
    P(z | phi) repeats after n_phi/M grid points."""
    cfg = _draw_config(rng)
    z = rng.integers(cfg.K, size=cfg.L)
    i = int(rng.integers(1, cfg.K))
    perm = rng.permutation(cfg.L)
    sides = {
        "marginal-shift": (z + i) % cfg.K,
        "marginal-permute": z[perm],
        "marginal-residue": z % cfg.a,
        "marginal-reflect": (-z - 1) % cfg.K,
    }
    p = _phase_marginal(z, cfg)
    base = float(p.mean())
    devs = {
        name: _rel_dev(base, float(_phase_marginal(w, cfg).mean())) for name, w in sides.items()
    }
    q = np.roll(p, -(p.size // cfg.M))
    scale = np.maximum(p, q)
    devs["marginal-period"] = float((np.abs(p - q)[scale > 0] / scale[scale > 0]).max(initial=0.0))
    return devs


def _worst_deviations(case, instances: int, seed: int) -> list[CheckResult]:
    """Worst deviation of each of case's identities over instances draws; a
    NaN deviation stays NaN, so its check fails."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1 (got {instances})")
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}
    for _ in range(instances):
        for name, dev in case(rng).items():
            worst[name] = float(np.maximum(worst.get(name, 0.0), dev))
    return [
        CheckResult(name, dev <= SYMMETRY_TOL, dev, SYMMETRY_TOL, f"{instances} instances")
        for name, dev in worst.items()
    ]


def check_symmetries(instances: int = 100, seed: int = 2024) -> list[CheckResult]:
    """All fourteen scalar/block/marginal identity checks."""
    return (
        _worst_deviations(_scalar_case, instances, seed)
        + _worst_deviations(_block_case, instances, seed + 1)
        + _worst_deviations(_marginal_case, instances, seed + 2)
    )


# ---- entropy constancy -------------------------------------------------------


def check_conditional_entropy_constant(n_inputs: int = 20, seed: int = 2027) -> CheckResult:
    """H(Z|x) is input-independent: brute-force entropy for random x vs x=0."""
    config = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
    rng = np.random.default_rng(seed)

    def brute_entropy(x: np.ndarray) -> float:
        return float(-_entropy_terms(block_probs_all_outputs(config, x)).sum())

    h0 = brute_entropy(np.zeros(config.L, dtype=np.int64))
    worst = 0.0
    for _ in range(n_inputs):
        x = rng.integers(config.M, size=config.L)
        worst = float(np.maximum(worst, abs(brute_entropy(x) - h0)))
    return CheckResult(
        "entropy-constant",
        worst <= ENTROPY_TOL,
        worst,
        ENTROPY_TOL,
        f"{n_inputs} random inputs, H(Z|x0)={h0:.6f} bits",
    )


# ---- enumeration counts ------------------------------------------------------


def check_cardinalities() -> list[CheckResult]:
    """Class counts match the closed forms they must equal."""
    expected = {3: 36, 4: 120, 5: 330, 6: 792, 7: 1716}
    worst = max(abs(len(output_class_arrays(8, L)[0]) - want) for L, want in expected.items())
    got_max = max(input_class_count(rep, 4) for rep in output_class_arrays(2, 8)[0])
    return [
        CheckResult(
            "canonical-class-counts",
            worst == 0,
            float(worst),
            0.0,
            "alphabet 8, block lengths 3..7 vs {36,120,330,792,1716}",
        ),
        CheckResult(
            "input-class-worst-case",
            got_max == 1225,
            float(abs(got_max - 1225)),
            0.0,
            f"max over residue patterns (M=4, L=8, a=2) = {got_max}",
        ),
    ]


# ---- oracle equivalence ------------------------------------------------------

ORACLE_CASES = tuple(
    (K, L, snr) for (K, L) in ((8, 2), (8, 3), (12, 2)) for snr in (0.0, 6.0, 12.0)
)


def check_oracle_equivalence() -> list[CheckResult]:
    """Reduced-enumeration mutual information against the brute-force path."""
    results = []
    for K, L, snr in ORACLE_CASES:
        cfg = SystemConfig(M=4, K=K, L=L, snr_db=snr)
        fast = mutual_information(cfg, method="reduced")
        slow = mutual_information(cfg, method="brute")
        dev = _rel_dev(fast.mi, slow.mi)
        results.append(
            CheckResult(
                f"oracle-mi-K{K}-L{L}-snr{snr:g}",
                dev <= ORACLE_TOL,
                dev,
                ORACLE_TOL,
                f"reduced {fast.mi:.9f} vs brute {slow.mi:.9f} bits",
            )
        )
    return results


def check_kernel_fill(instances: int = 100, seed: int = 2028) -> CheckResult:
    """Random kernel table cells against the scalar quadrature oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        cfg = _draw_config(rng, L=1)
        kernel = kernel_for(cfg)
        z, i = int(rng.integers(cfg.K)), int(rng.integers(kernel.n_phi))
        direct = sector_probability(z, 0, float(kernel.phi_grid[i]), cfg)
        worst = float(np.maximum(worst, _rel_dev(float(kernel.table[z, i]), direct)))
    return CheckResult("kernel-fill", worst <= ORACLE_TOL, worst, ORACLE_TOL, f"{instances} cells")


def run_all_checks(
    instances: int = 100,
    seed: int = 2024,
    include_oracle: bool = True,
) -> list[CheckResult]:
    """Full suite in display order; `instances` scales the randomized checks."""
    results = check_symmetries(instances, seed)
    results.append(check_conditional_entropy_constant(seed=seed + 3))
    results.append(check_kernel_fill(instances, seed + 4))
    results.extend(check_cardinalities())
    if include_oracle:
        results.extend(check_oracle_equivalence())
    return results
