"""Pins every ``CoreStats`` field of the cycle core, bit for bit.

``goldens/golden_stats.json`` pins cycles, flushes, mispredicts and repair
at the default configuration, and ``perfbench/reference/seed0.json`` pins
default-configuration counts.  Neither sees the fetch-side counters
(``stage_redirects``, ``fetch_bubble_cycles``, ``decode_starved_cycles``,
``icache_stall_cycles``), the SFB counters or the per-PC site profiles, nor
any non-default configuration path.  This gate runs three presets on three
micro-workloads under five configurations and hashes every ``CoreStats``
field of every run, one SHA-256 digest per configuration, so a change to
the frontend that moves any simulated count fails here and names the
configuration it moved under.

To see the records behind a digest::

    PYTHONPATH=src python tests/test_core_stats_digest.py
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro import presets
from repro.frontend.config import CoreConfig, ICacheConfig
from repro.frontend.core import Core
from repro.workloads.micro import build_micro

PRESETS = ("tage_l", "b2", "tourney")
MICROS = ("dispatch", "pointer_chase", "call_ret")
SCALE = 0.2
MAX_INSTRUCTIONS = 3000

#: ``name -> (CoreConfig, composer overrides)``.
CONFIGS = {
    "default": (CoreConfig(), {}),
    "sfb": (CoreConfig(sfb_enabled=True), {}),
    "no_replay": (CoreConfig(), {"ghist_repair_mode": "no_replay"}),
    "icache_off": (CoreConfig(icache=ICacheConfig(enabled=False)), {}),
    "serialize_cfi": (CoreConfig(), {"serialize_cfi": True}),
}

#: SHA-256 of :func:`records` per configuration.
DIGESTS = {
    "default": "efd163ea616e2e0f8ab792e9aa70e9ce6a7d9b4ef50719799491febeae6486b9",
    "sfb": "c5b019b67637d451d60381b044983d13ba7671946681123424f4aa977b4abd4d",
    "no_replay": "97d78552cc0ac340b8812a946f71e884a449dfdea0846d78e3524f0f176c21d9",
    "icache_off": "e2c0cdc1a0e143651b1e2258a8469f6a8b6bb7907fefc812c733f00f64b2c138",
    "serialize_cfi": "d630829b7bed3a50d02f0053d4fc57756ca67ed8fc99c5fe49fe6564cc2d6a16",
}


def stats_record(stats):
    """Every ``CoreStats`` field as JSON-ready data, dict keys sorted."""
    record = {}
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, dict) and field.name != "telemetry":
            value = sorted(value.items())
        record[field.name] = value
    return record


@functools.lru_cache(maxsize=None)
def records(config_name):
    """The stats record of every (preset, micro) run under one config."""
    core_config, overrides = CONFIGS[config_name]
    out = []
    for micro in MICROS:
        program = build_micro(micro, scale=SCALE)
        for preset in PRESETS:
            predictor = presets.build(preset, **overrides)
            stats = Core(program, predictor, core_config).run(
                max_instructions=MAX_INSTRUCTIONS
            )
            out.append([micro, preset, stats_record(stats)])
    return out


def digest(config_name):
    payload = json.dumps(records(config_name), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_core_stats_digest(config_name):
    assert digest(config_name) == DIGESTS[config_name]


def test_configs_reach_the_counters_they_pin():
    """Each non-default path moves something, so each digest pins it."""
    by_config = {name: records(name) for name in ("default", "sfb", "icache_off")}
    default = by_config["default"]
    sfb = by_config["sfb"]
    assert any(rec[2]["sfb_converted"] for rec in sfb)
    assert any(rec[2]["committed_predicated"] for rec in sfb)
    assert all(rec[2]["icache_stall_cycles"] for rec in default)
    assert not any(rec[2]["icache_stall_cycles"] for rec in by_config["icache_off"])
    for rec in default:
        stats = rec[2]
        assert stats["stage_redirects"] and stats["mispredicts_by_pc"]
        assert stats["executions_by_pc"] and stats["fetch_bubble_cycles"]


def test_call_ret_restores_the_ras_after_wrong_path_calls():
    """``call_ret`` reaches the RAS repair the digests pin: wrong-path
    calls and returns are undone, on flushes and on staged redirects."""
    for rec in records("default"):
        if rec[0] == "call_ret":
            assert rec[2]["flushes"] and rec[2]["stage_redirects"]
    program = build_micro("call_ret", scale=SCALE)
    for preset in PRESETS:
        core = Core(program, presets.build(preset))
        restores = []
        restore = core.ras.restore
        core.ras.restore = lambda snapshot: restores.append(restore(snapshot))
        stats = core.run(max_instructions=MAX_INSTRUCTIONS)
        assert restores, preset
        assert stats.target_mispredicts == 0, preset


if __name__ == "__main__":
    for name in sorted(CONFIGS):
        print(name, digest(name))
        for micro, preset, record in records(name):
            print(" ", micro, preset, json.dumps(record, sort_keys=True))
