"""Golden digests: the CLI's output files and one calibration loss, bit for bit.

Any change that should leave the numbers alone (a refactor, a deletion, a
speed-up) must keep these digests. A change that means to move a number
re-pins them and says why.

Pinned on Linux (glibc) with CPython 3.11. The telemetry goes through libm's
sin, cos and pow, so another libm may differ in the last bit and fail here
without a fault in the program.
"""

import hashlib
import json

import pytest

from morphfin import experiments as xp
from morphfin.cli import _environment, main
from morphfin.config import load_default_config

SMALL_GRID = {"frequencies": [1.0, 1.5], "repeats": 1, "duration": 12.0}
NOISY = {"dt": 0.005, "noise_enabled": True}

# case -> (config written to --config, or None for the packaged default; the
# arguments after --out). The noise-on cases pin the seeded sensor noise.
CASES = {
    "run": (None, ["run"]),
    "depth-step": (None, ["depth-step"]),
    "sweep-speed": ({"experiment": SMALL_GRID}, ["sweep-speed"]),
    "yaw-study": (
        {"experiment": {**SMALL_GRID, "kind": "yaw_study", "amplitudes": [20.0]}},
        ["yaw-study"],
    ),
    "run-noise": ({"sim": {**NOISY, "duration": 12.0}}, ["run"]),
    "sweep-speed-noise": (
        {"sim": NOISY, "experiment": {**SMALL_GRID, "repeats": 3}},
        ["--seed", "4", "sweep-speed"],
    ),
    "depth-step-noise": ({"sim": {**NOISY, "duration": 12.0}}, ["--seed", "5", "depth-step"]),
    # the depth noise and the depth loop move only a cell's depth columns: the
    # table and chart of these two are those of "sweep-speed", byte for byte
    "sweep-speed-noise-one-repeat": (
        {"sim": {"noise_enabled": True}, "experiment": SMALL_GRID}, ["sweep-speed"]
    ),
    "sweep-speed-free": ({"sim": {"depth_hold": False}, "experiment": SMALL_GRID}, ["sweep-speed"]),
}

DIGESTS = {
    "run": {
        "run.csv": "6321f8cccf903c137578e40e213e904eb3c6b17eacc9fdda724e7bafcacf9601",
        "run_metrics.json": "574c066d5db946429cbe3dde9b76ac611a087090f0696c74cd957a8e83ad4be8",
    },
    "depth-step": {
        "depth_step.csv": "62f8b12f33d674333c94999ab7ddafd4aac0a56b916b2f4b15954f60f659a594",
        "depth_step.svg": "0e8af8e7ee1d72609589de7590a2f9acfcaa6307c494cf0cdc5678e4978cf007",
        "depth_step_report.json": "ae5f1c9df6fd0a4054868e59c2b5f337b7f76bb1319e26b9c79e7fb613ba1834",
    },
    "sweep-speed": {
        "run_f1.00_a20_erect.csv": "b458a9f830eb83802ddaa9300cbd37f6ddca2bb26f7a67cc3b1c2192aca8d25d",
        "run_f1.00_a20_folded.csv": "58bd5331a8b7b8a47efac3458721311b029d62604b68f8d4c0fd20eed2a7ac0e",
        "run_f1.50_a20_erect.csv": "733b499cca5e0d2ecffd0f1456ba3e0bb1f48fe1ee1cc8dba85f1c36a5d2190b",
        "run_f1.50_a20_folded.csv": "0f9a7e153ea4ad0dd47a100119a8c6f40a493c6532138b56fd118813e14fe850",
        "speed_sweep.csv": "3cade773ab62f4fe20496bf560f4899e2ce72dd3bcffb40265186175414934e1",
        "speed_vs_frequency.svg": "243a2f74c111b39fc674cacf9bcab8e5d25d3cb1fda616f853517e76d7b84c8f",
    },
    "yaw-study": {
        "yaw_f1.00_a20_erect.csv": "b458a9f830eb83802ddaa9300cbd37f6ddca2bb26f7a67cc3b1c2192aca8d25d",
        "yaw_f1.00_a20_folded.csv": "58bd5331a8b7b8a47efac3458721311b029d62604b68f8d4c0fd20eed2a7ac0e",
        "yaw_f1.50_a20_erect.csv": "733b499cca5e0d2ecffd0f1456ba3e0bb1f48fe1ee1cc8dba85f1c36a5d2190b",
        "yaw_f1.50_a20_folded.csv": "0f9a7e153ea4ad0dd47a100119a8c6f40a493c6532138b56fd118813e14fe850",
        "yaw_p2p.svg": "dcd1f98330f6428f46b51e88e2330582e4b3fd96c90178c6f1c791fe511a795e",
        "yaw_study.csv": "f5e739715bbc5a86fbb1f8d8a31852bfc7393ef81f2988ee98d84f5775525c8a",
    },
    "run-noise": {
        "run.csv": "88cf507ab28a2b53ddfdb2f92aa878e100d4acf5c5a482b75adb4f988c471ed9",
        "run_metrics.json": "2dccb35e5170f0068a77e354c122a297e96a60a9f8d822410f4304253d3b8b70",
    },
    "sweep-speed-noise": {
        "run_f1.00_a20_erect.csv": "c5b3df871c97d2bd2ee58f5f616ef51b22bb616f40f65da470473192058cf8f2",
        "run_f1.00_a20_folded.csv": "912182384250a566aaf0abd1ec873789a4beebb1fbf4ff9b9d1c4049ea8c47ff",
        "run_f1.50_a20_erect.csv": "4344ed8e803d9812af71071538d096bc2cceca3e680bb2c0580baca8bc49445a",
        "run_f1.50_a20_folded.csv": "6923691f923c63e4b4b32fef2110383f5a29e4b43ee32b827673c3a75325ac24",
        "speed_sweep.csv": "2316576f81560ee1b617adddfa0dea8259281f1bd84df3071a6a2fdb52218eed",
        "speed_vs_frequency.svg": "243a2f74c111b39fc674cacf9bcab8e5d25d3cb1fda616f853517e76d7b84c8f",
    },
    "depth-step-noise": {
        "depth_step.csv": "403b6a73028b9c9be6915dd76427de686db75234277a001a804ca085518869e1",
        "depth_step.svg": "3f4fadb0d40e21b57268a2f38935939754312f7f972ae036ccd4f93b2dd5e265",
        "depth_step_report.json": "16446f6847825b888cc05659c5f062002bf7d80e9275860f6454d02be4a54858",
    },
    "sweep-speed-noise-one-repeat": {
        "run_f1.00_a20_erect.csv": "5b8380934f91c817055c6e4787f5fce699dbf6e332d1c1c8fbc6a6eb2bdad17f",
        "run_f1.00_a20_folded.csv": "0ebbf10e662dc90eed862ad751055904b783d19d28c1d2bdf2c2fa7e23108d6d",
        "run_f1.50_a20_erect.csv": "3ad1ff058fa9abf07c552f5369de35b40ab45e800bed582d67132a79ce937089",
        "run_f1.50_a20_folded.csv": "29e3b0b49586217ec3a7cde47756926d9f3363c952789491fc75f2552587bf5a",
        "speed_sweep.csv": "3cade773ab62f4fe20496bf560f4899e2ce72dd3bcffb40265186175414934e1",
        "speed_vs_frequency.svg": "243a2f74c111b39fc674cacf9bcab8e5d25d3cb1fda616f853517e76d7b84c8f",
    },
    "sweep-speed-free": {
        "run_f1.00_a20_erect.csv": "3b2258e45dc2bdfffa7783abe3f81af17610c56499c7e002fdb2f215e7d29794",
        "run_f1.00_a20_folded.csv": "319019aba71307f572c02562f68b93df00830a00f49c160dafa8ba7f1785341e",
        "run_f1.50_a20_erect.csv": "438810f244db309f224abfd0b2cc4743e3d3c0ca32cfeec37763ffedace720d4",
        "run_f1.50_a20_folded.csv": "6a5af339ad88529b6c15cdae17947eb53279b663bf0b5e783d951ad21f92599f",
        "speed_sweep.csv": "3cade773ab62f4fe20496bf560f4899e2ce72dd3bcffb40265186175414934e1",
        "speed_vs_frequency.svg": "243a2f74c111b39fc674cacf9bcab8e5d25d3cb1fda616f853517e76d7b84c8f",
    },
}

TARGETS_HEX = {
    "top_speed": "0x1.cc7c1df9d356ep-3",
    "cot_folded_fmax": "0x1.5e79c10758afep+0",
    "cot_erect_fmax": "0x1.5da3a27b99327p+0",
    "p2p_10deg_0.5hz_folded": "0x1.fd6e194adf508p+2",
    "p2p_10deg_1.0hz_erect": "0x1.9d620015c4778p+2",
    "p2p_20deg_1.0hz_folded": "0x1.1ebfd3c1e256dp+4",
    "p2p_20deg_1.0hz_erect": "0x1.be0d2dd92ac80p+3",
    "p2p_30deg_0.5hz_erect": "0x1.5578692b3a648p+4",
    "p2p_30deg_1.0hz_folded": "0x1.baaff754af4aap+4",
}


def _digests(out):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs_are_byte_identical(case, tmp_path, capsys):
    settings, args = CASES[case]
    argv = ["--out", str(tmp_path / "out"), *args]
    if settings is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        argv = ["--config", str(config), *argv]
    assert main(argv) == 0
    assert _digests(tmp_path / "out") == DIGESTS[case]


def test_evaluate_targets_is_bit_identical():
    simulated = xp.evaluate_targets(_environment(load_default_config()), xp.default_targets())
    assert {name: value.hex() for name, value in simulated.items()} == TARGETS_HEX


@pytest.mark.parametrize(
    "noise", [{}, {"noise_enabled": True, "noise_depth_std_m": 0}], ids=["noise_off", "zero_std"]
)
def test_a_zero_noise_std_writes_the_noise_off_run(noise, tmp_path, capsys):
    # a std of 0 draws no noise, so the seed reaches nothing and the run is the noise-off one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sim": {"duration": 12.0, **noise}}))
    argv = ["--config", str(config), "--seed", "7", "--out", str(tmp_path / "out"), "run"]
    assert main(argv) == 0
    digest = "58bd5331a8b7b8a47efac3458721311b029d62604b68f8d4c0fd20eed2a7ac0e"
    assert _digests(tmp_path / "out")["run.csv"] == digest
