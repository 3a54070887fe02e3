"""Workload generator: config files for one job of each workload, from a seed.

Every workload keeps its problem size fixed across seeds; the seed only
moves inputs that do not change the amount of work (the qubit frequency
inside its band, the footprint's target mode, the coupling scale, the
first disorder seed).  ``DEFAULT_SEED`` reproduces the bundled figure
parameters and is the seed the reference outputs were recorded at.

Run ``python3 perfbench/workloads.py <workload> <seed> <dir>`` to write
one job's configs and print its command lines.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# fig2-scale device (dim 501, 164 window modes); the spectrum workload
# scales the same design to n_left=800, n_right=1200 (dim 2001)
_DEVICE = """\
circuit.n_left = {n_left}
circuit.cell_pitch_m = 100e-6
circuit.z0_ohm = 50
circuit.f_ir_ghz = 4.0
circuit.rhtl_length_m = 0.03
circuit.rhtl_z0_ohm = 50
circuit.n_right = {n_right}
modes.window_ghz_lo = 3.8
modes.window_ghz_hi = 13.0
qubit.extent_m = 0.5e-3
coupling.normalization = dom
"""


# (subcommand, extra flags) of the CLI invocations that make one job of each
# workload; why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "spectrum": (("modes", ("--profiles",)),),
    "ensemble": (("disorder", ()),),
    "bath": (("dynamics", ()), ("renorm", ()), ("phase", ())),
}


def _configs(name: str, seed: int) -> dict[str, str]:
    """Config text per subcommand of one job."""
    rng = random.Random(f"{name}:{seed}")

    def draw(default: float, lo: float, hi: float) -> str:
        value = default if seed == DEFAULT_SEED else rng.uniform(lo, hi)
        return f"{value:.6f}"

    small = _DEVICE.format(n_left=200, n_right=300)
    if name == "spectrum":
        target = draw(4.579, 4.3, 4.9)
        return {"modes": _DEVICE.format(n_left=800, n_right=1200) + (
            f"qubit.freq_ghz = {draw(4.2, 4.1, 4.4)}\n"
            f"qubit.target_mode_ghz = {target}\n"
            f"qubit.tune_mode_ghz = {target}\n"
            f"qubit.tune_g_ghz = {draw(0.46, 0.3, 0.6)}\n")}
    if name == "ensemble":
        return {"disorder": small + (
            "qubit.g_ghz = 0.2\n"
            "disorder.sigma = 0.02\n"
            "disorder.seeds = 50\n"
            f"disorder.seed0 = {1 + 50 * (seed % 1_000_000)}\n")}
    if name == "bath":
        target = draw(4.579, 4.4, 4.8)
        slow = draw(5.4, 5.2, 5.6)
        bath = small + f"qubit.target_mode_ghz = {target}\n"
        return {
            "dynamics": bath + (
                f"qubit.freq_ghz = {draw(4.2, 4.1, 4.4)}\n"
                f"qubit.g_ghz = {draw(0.2, 0.15, 0.25)}\n"
                "dynamics.tg_grid = 0.0, 20.0, 201\n"
                "dynamics.tg_spacing = linear\n"),
            "renorm": bath + (
                f"qubit.freq_ghz = {slow}\n"
                "qubit.g_ghz = 0.2\n"
                "renorm.variant = literal\n"
                "renorm.g_grid = 0.01, 2.0, 2000\n"
                "renorm.g_spacing = log\n"),
            "phase": bath + (
                f"qubit.freq_ghz = {slow}\n"
                "qubit.g_ghz = 0.2\n"
                "renorm.variant = literal\n"
                "phase.delta0_grid = 1.1, 1.4, 40\n"
                "phase.delta0_spacing = linear\n"
                "phase.g_grid = 0.05, 2.0, 400\n"
                "phase.g_spacing = log\n"),
        }
    raise KeyError(f"unknown workload {name!r}")


@dataclass(frozen=True)
class Job:
    """The generated inputs of one job: config paths and their subcommands."""

    workload: str
    configs: tuple[tuple[str, tuple[str, ...], Path], ...]

    def argvs(self, out: Path) -> list[list[str]]:
        """metaline argument lists of the job, writing CSVs into ``out``."""
        return [[cmd, "--config", str(path), "--out", str(out), *flags]
                for cmd, flags, path in self.configs]


def generate(name: str, seed: int, dest: Path) -> Job:
    """Write the configs of one ``name`` job for ``seed`` into ``dest``."""
    texts = _configs(name, seed)
    dest.mkdir(parents=True, exist_ok=True)
    configs = []
    for cmd, flags in WORKLOADS[name]:
        path = dest / f"{name}-{cmd}.cfg"
        path.write_text(f"# {name} workload, seed {seed}\n" + texts[cmd])
        configs.append((cmd, flags, path))
    return Job(name, tuple(configs))


def ladder_config(n_left: int) -> str:
    """Config of one size-ladder rung: the fig2 design with n_right = 1.5 n_left."""
    return _DEVICE.format(n_left=n_left, n_right=3 * n_left // 2) + "qubit.g_ghz = 0.2\n"


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: workloads.py <workload> <seed> <dir>")
    job = generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    for argv in job.argvs(Path(sys.argv[3]) / "out"):
        print("metaline", " ".join(argv))
