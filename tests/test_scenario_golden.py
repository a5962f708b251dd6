"""Golden digests of the four scripted scenarios.

Each case pins the sha256 of ``report.canonical_json()``: the seed, the
exact configuration and the whole deterministic result payload. The pins
hold across processes and hosts, so any change to how a scripted run is
assembled, driven or drained (event order, drain length, auditor wiring)
shows up here as a digest change.

Configs use float literals where the field is a float: ``600`` and
``600.0`` serialise differently in the canonical JSON.
"""

from hashlib import sha256

import pytest

from repro.config import ChaosConfig, OverloadConfig, ServeConfig, SoakConfig
from repro.control.scenario import run_serve
from repro.faults.scenario import run_chaos
from repro.flow.scenario import run_overload
from repro.gen.soak import run_soak

GOLDEN = {
    "chaos": (
        lambda: run_chaos(ChaosConfig()),
        "d52fbc91a52d23bf525b0de88b2b33994c950a82474d235692074050d859486d",
    ),
    "chaos-fault-free": (
        lambda: run_chaos(ChaosConfig(inject=False)),
        "d96f4e412dbbbde3e13860bac6b70804f30ba2d68becd8735758586839a72511",
    ),
    "overload-block": (
        lambda: run_overload(OverloadConfig(policy="block")),
        "04eb2ca55cd736470524c20b9272b1c0bcdc344a26274f9648acc12fbabbf547",
    ),
    "overload-shed": (
        lambda: run_overload(OverloadConfig(policy="shed")),
        "22567835e83f2862ee70d4bd53253532453c87402f836e70b37db3341bee9a02",
    ),
    "overload-degrade": (
        lambda: run_overload(OverloadConfig(policy="degrade")),
        "0788111c1e0e6a8f4074d930d9238fea7f2a758fdd08fbdd1b54519893e6e9a5",
    ),
    "serve-600s": (
        lambda: run_serve(ServeConfig(duration=600.0)),
        "a9b71157805e4ef39c87bfd7d6a733d5820767fa8b788fb6f52dcc3f98ac63ce",
    ),
    "soak-seed11-0.25h": (
        lambda: run_soak(SoakConfig(seed=11, hours=0.25)),
        "db27158670eea2c61378e89e237ddeb62a28c8fb14fa25e266091303b1e95e7d",
    ),
    "soak-seed7-1h-2failovers": (
        lambda: run_soak(SoakConfig(seed=7, hours=1.0, failovers=2)),
        "cd871958e94b0576906c61e1fb9f82cf5a1f8d5e741ce1d1a17ab455c9512612",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_digest_is_pinned(name):
    run, expected = GOLDEN[name]
    report = run()
    assert sha256(report.canonical_json().encode()).hexdigest() == expected
