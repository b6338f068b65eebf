"""Experiments that build environments one after another free each one first.

A finished group's :class:`Environment` is a reference cycle (loop <->
handles <-> peers <-> video), so refcounting alone never frees it; an
experiment that collects it at the group boundary keeps one group's
dead graph from sitting under the next group's peak. The check: hold a
weakref to every environment the experiment builds, and require each
earlier one to be dead when the next is constructed.
"""

import weakref

import pytest

from repro.environment import Environment
from repro.experiments import ecdn_discussion, im_checking, ip_leak_wild, risk_matrix, scenario_matrix
from repro.harness import registry


def track_environments(monkeypatch, module) -> list[list[bool]]:
    """Patch ``module.Environment``; return, per construction, which
    earlier environments were still alive at that moment."""
    refs: list[weakref.ref] = []
    alive_at_build: list[list[bool]] = []

    class Tracked(Environment):
        def __init__(self, *args, **kwargs):
            alive_at_build.append([ref() is not None for ref in refs])
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(module, "Environment", Tracked)
    return alive_at_build


@pytest.mark.parametrize(
    "name, module, environments",
    [
        ("im-checking", im_checking, 3),
        ("risk-matrix", risk_matrix, 20),
        ("ecdn", ecdn_discussion, 3),
        ("scenario-matrix", scenario_matrix, None),
        ("ip-leak", ip_leak_wild, 3),
    ],
)
def test_each_environment_is_freed_before_the_next_is_built(monkeypatch, name, module, environments):
    alive_at_build = track_environments(monkeypatch, module)
    spec = registry.get(name)
    spec.runner(**spec.resolve_params(quick=True))
    if environments is not None:
        assert len(alive_at_build) == environments
    assert len(alive_at_build) > 1
    for earlier in alive_at_build:
        assert not any(earlier)
