"""Self-check suite: symmetry identities, enumeration counts, oracle ties.

Every check returns a CheckResult with the measured worst deviation, so
failures carry numbers instead of bare booleans. The same functions back the
`verify` CLI subcommand and the acceptance tests.

Naming scheme for the identity checks:

* scalar-shift      P(z|x,phi) invariant when z and phi advance one sector
* scalar-step       P(z|x,phi) invariant when x steps and z jumps a sectors
* scalar-rebase     conditioning on x equals conditioning on 0 after z - a*x
* scalar-residue    conditioning reduces to the residue z mod a
* block-shift       P(z|x) invariant under constant addition to z
* block-permute     P(z|x) invariant under a common permutation of z and x
* block-rebase      P(z|x) = P(z - a*x | all-zero input)
* block-residue     P(z|x) = P(z mod a | x - quotient)
* marginal-shift    P(z) invariant under constant addition
* marginal-permute  P(z) invariant under permutation
* marginal-residue  P(z) = P(z mod a)
* entropy-constant  H(Z|x) does not depend on x (brute-force per input)
* kernel-fill       kernel table cells equal adaptive-quadrature probabilities
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .capacity import block_probs_all_outputs, mutual_information
from .combinatorics import canonical_output_classes, input_class_count
from .core import TWO_PI, SystemConfig
from .transition import (
    block_conditional,
    block_conditional_batch,
    kernel_for,
    sector_probability,
)

SYMMETRY_TOL = 1e-9
ORACLE_TOL = 1e-9
ENTROPY_TOL = 1e-9

_KS = (8, 12)
_LS = (2, 3, 4)
_SNRS_DB = (0.0, 6.0, 12.0)
_M = 4


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
    return SystemConfig(
        M=_M,
        K=int(rng.choice(_KS)),
        L=int(rng.choice(_LS)) if L is None else L,
        snr_db=float(rng.choice(_SNRS_DB)),
    )


# ---- scalar identities -------------------------------------------------------


def check_scalar_symmetries(instances: int = 100, seed: int = 2024) -> list[CheckResult]:
    """Quadrature-level identities of P(z | x, phi) on random operating points."""
    rng = np.random.default_rng(seed)
    devs = {"scalar-shift": 0.0, "scalar-step": 0.0, "scalar-rebase": 0.0, "scalar-residue": 0.0}
    for _ in range(instances):
        cfg = _draw_config(rng, L=1)
        K, M, a = cfg.K, cfg.M, cfg.a
        z = int(rng.integers(K))
        x = int(rng.integers(M))
        i = int(rng.integers(1, K))
        phi = float(rng.uniform(0.0, TWO_PI))
        base = sector_probability(z, x, phi, cfg)

        shifted = sector_probability((z + i) % K, x, phi + i * TWO_PI / K, cfg)
        devs["scalar-shift"] = max(devs["scalar-shift"], _rel_dev(base, shifted))

        j = int(rng.integers(1, M))
        stepped = sector_probability((z + j * a) % K, (x + j) % M, phi, cfg)
        devs["scalar-step"] = max(devs["scalar-step"], _rel_dev(base, stepped))

        rebased = sector_probability((z - a * x) % K, 0, phi, cfg)
        devs["scalar-rebase"] = max(devs["scalar-rebase"], _rel_dev(base, rebased))

        residue = sector_probability(z % a, (x - z // a) % M, phi, cfg)
        devs["scalar-residue"] = max(devs["scalar-residue"], _rel_dev(base, residue))
    return [
        CheckResult(name, dev <= SYMMETRY_TOL, dev, SYMMETRY_TOL, f"{instances} instances")
        for name, dev in devs.items()
    ]


# ---- block identities --------------------------------------------------------


def check_block_symmetries(instances: int = 100, seed: int = 2025) -> list[CheckResult]:
    """Identities of the phase-averaged block probability P(z | x)."""
    rng = np.random.default_rng(seed)
    devs = {"block-shift": 0.0, "block-permute": 0.0, "block-rebase": 0.0, "block-residue": 0.0}
    for _ in range(instances):
        cfg = _draw_config(rng)
        K, M, L, a = cfg.K, cfg.M, cfg.L, cfg.a
        z = rng.integers(K, size=L)
        x = rng.integers(M, size=L)
        base = block_conditional(z, x, cfg)

        i = int(rng.integers(1, K))
        devs["block-shift"] = max(
            devs["block-shift"], _rel_dev(base, block_conditional((z + i) % K, x, cfg))
        )

        perm = rng.permutation(L)
        devs["block-permute"] = max(
            devs["block-permute"], _rel_dev(base, block_conditional(z[perm], x[perm], cfg))
        )

        devs["block-rebase"] = max(
            devs["block-rebase"],
            _rel_dev(base, block_conditional((z - a * x) % K, np.zeros(L, dtype=np.int64), cfg)),
        )

        q = z // a
        devs["block-residue"] = max(
            devs["block-residue"], _rel_dev(base, block_conditional(z % a, (x - q) % M, cfg))
        )
    return [
        CheckResult(name, dev <= SYMMETRY_TOL, dev, SYMMETRY_TOL, f"{instances} instances")
        for name, dev in devs.items()
    ]


# ---- marginal identities -----------------------------------------------------


def _brute_marginal(z: np.ndarray, kernel, inputs: np.ndarray) -> float:
    rows = (z[None, :] - kernel.a * inputs) % kernel.K
    return float(block_conditional_batch(rows, kernel).mean())


def check_marginal_symmetries(instances: int = 100, seed: int = 2026) -> list[CheckResult]:
    """Identities of P(z), each side summed over every one of the M^L inputs."""
    rng = np.random.default_rng(seed)
    devs = {"marginal-shift": 0.0, "marginal-permute": 0.0, "marginal-residue": 0.0}
    input_cache: dict[int, np.ndarray] = {}
    for _ in range(instances):
        cfg = _draw_config(rng)
        K, L, a = cfg.K, cfg.L, cfg.a
        kernel = kernel_for(cfg)
        if L not in input_cache:
            input_cache[L] = np.array(list(product(range(_M), repeat=L)), dtype=np.int64)
        inputs = input_cache[L]
        z = rng.integers(K, size=L)
        base = _brute_marginal(z, kernel, inputs)

        i = int(rng.integers(1, K))
        devs["marginal-shift"] = max(
            devs["marginal-shift"], _rel_dev(base, _brute_marginal((z + i) % K, kernel, inputs))
        )
        perm = rng.permutation(L)
        devs["marginal-permute"] = max(
            devs["marginal-permute"], _rel_dev(base, _brute_marginal(z[perm], kernel, inputs))
        )
        devs["marginal-residue"] = max(
            devs["marginal-residue"], _rel_dev(base, _brute_marginal(z % a, kernel, inputs))
        )
    return [
        CheckResult(name, dev <= SYMMETRY_TOL, dev, SYMMETRY_TOL, f"{instances} instances")
        for name, dev in devs.items()
    ]


def check_symmetries(instances: int = 100, seed: int = 2024) -> list[CheckResult]:
    """All eleven scalar/block/marginal identity checks."""
    return (
        check_scalar_symmetries(instances, seed)
        + check_block_symmetries(instances, seed + 1)
        + check_marginal_symmetries(instances, seed + 2)
    )


# ---- entropy constancy -------------------------------------------------------


def check_conditional_entropy_constant(
    n_inputs: int = 20,
    seed: int = 2027,
    config: SystemConfig | None = None,
) -> CheckResult:
    """H(Z|x) is input-independent: brute-force entropy for random x vs x=0."""
    if config is None:
        config = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
    rng = np.random.default_rng(seed)
    kernel = kernel_for(config)

    def brute_entropy(x: np.ndarray) -> float:
        probs = block_probs_all_outputs(kernel, x)
        mask = probs > 0
        return float(-(probs[mask] * np.log2(probs[mask])).sum())

    h0 = brute_entropy(np.zeros(config.L, dtype=np.int64))
    worst = 0.0
    for _ in range(n_inputs):
        x = rng.integers(config.M, size=config.L)
        worst = max(worst, abs(brute_entropy(x) - h0))
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
    results = []
    expected = {3: 36, 4: 120, 5: 330, 6: 792, 7: 1716}
    worst = 0
    for L, want in expected.items():
        got = len(canonical_output_classes(8, L))
        worst = max(worst, abs(got - want))
    results.append(
        CheckResult(
            "canonical-class-counts",
            worst == 0,
            float(worst),
            0.0,
            "alphabet 8, block lengths 3..7 vs {36,120,330,792,1716}",
        )
    )
    sizes = [
        input_class_count(np.array(cls.representative), 4)
        for cls in canonical_output_classes(2, 8)
    ]
    got_max = max(sizes)
    results.append(
        CheckResult(
            "input-class-worst-case",
            got_max == 1225,
            float(abs(got_max - 1225)),
            0.0,
            f"max over residue patterns (M=4, L=8, a=2) = {got_max}",
        )
    )
    return results


# ---- oracle equivalence ------------------------------------------------------

ORACLE_CASES = tuple(
    (K, L, snr) for (K, L) in ((8, 2), (8, 3), (12, 2)) for snr in _SNRS_DB
)


def check_oracle_equivalence(cases=ORACLE_CASES) -> list[CheckResult]:
    """Reduced-enumeration mutual information against the brute-force path."""
    results = []
    for K, L, snr in cases:
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
        worst = max(worst, _rel_dev(float(kernel.table[z, i]), direct))
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
