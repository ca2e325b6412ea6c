"""Replayer.run_window on the real attack platform: memoized replay
windows are indistinguishable from cold ones, unkeyable recipes run
cold with an accounting bump."""

import dataclasses

import pytest

from repro.core.recipes import WalkLocation, WalkTuning, replay_n_times
from repro.core.replayer import AttackEnvironment, Replayer
from repro.memo import WindowMemo
from repro.reporting import machine_report
from repro.victims.control_flow import setup_control_flow_victim


def _armed_replayer(memo, attack_function, secret=1):
    rep = Replayer(AttackEnvironment.build(), memo=memo)
    proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(proc, secret=secret)
    recipe = rep.module.provide_replay_handle(
        proc, victim.handle_va + 0x20, name="memo-replay",
        attack_function=attack_function,
        walk_tuning=WalkTuning(upper=WalkLocation.PWC,
                               leaf=WalkLocation.DRAM))
    rep.launch_victim(proc, victim.program)
    rep.arm(recipe)
    return rep, recipe


def _observe(rep, recipe, cycles):
    return (cycles,
            recipe.replays,
            list(recipe.probe_log),
            dataclasses.asdict(
                machine_report(rep.machine, rep.kernel, rep.module)),
            rep.machine.metrics.dump())


def test_memoized_replay_window_matches_cold_run():
    # Cold reference: an independent platform with no memo at all.
    cold_rep, cold_recipe = _armed_replayer(None, replay_n_times(6))
    cold = _observe(cold_rep, cold_recipe,
                    cold_rep.run_window(cold_recipe))
    assert cold_recipe.replays == 6, "workload must actually replay"

    memo = WindowMemo()
    rep, recipe = _armed_replayer(memo, replay_n_times(6))
    rep.checkpoint()
    first = _observe(rep, recipe, rep.run_window(recipe))
    assert first == cold, "memo attachment must not perturb a miss"

    rep.rewind()
    second = _observe(rep, recipe, rep.run_window(recipe))
    assert second == cold, "a hit must splice the identical outcome"
    assert memo.counts()["hits"] == 1
    assert memo.counts()["misses"] == 1


def test_unkeyable_recipe_runs_cold_with_accounting():
    class _Stepper:
        def __init__(self):
            self.budget = 6

        def step(self, event):
            # Same decisions as replay_n_times(6), but carried in
            # object state the fingerprint cannot see.
            from repro.core.recipes import ReplayAction, ReplayDecision
            self.budget -= 1
            return ReplayDecision(ReplayAction.REPLAY if self.budget > 0
                                  else ReplayAction.RELEASE)

    memo = WindowMemo()
    rep, recipe = _armed_replayer(memo, _Stepper().step)
    rep.run_window(recipe)
    assert recipe.released, "unkeyable window must still run to release"
    assert memo.counts()["uncacheable"] == 1
    assert memo.counts()["misses"] == 0 and len(memo) == 0


def test_steering_probe_runs_cold_with_accounting():
    from repro.cpu.probe import Probe

    class _LosesEveryRace(Probe):
        # Overriding on_pte_race marks the probe as steering, even
        # though this one never changes the outcome.
        def on_pte_race(self, core, context, entry):
            return False

    memo = WindowMemo()
    rep, recipe = _armed_replayer(memo, replay_n_times(6))
    rep.machine.core.attach(_LosesEveryRace())
    rep.run_window(recipe)
    assert recipe.released
    assert memo.counts()["uncacheable"] == 1
    assert memo.counts()["misses"] == 0 and len(memo) == 0


@pytest.mark.parametrize("secret", [0, 1])
def test_distinct_victim_secrets_never_share_entries(secret):
    """The digest sees through to victim data: runs that differ only
    in the secret must not collide in the memo."""
    memo = WindowMemo()
    rep, recipe = _armed_replayer(memo, replay_n_times(4),
                                  secret=secret)
    rep.checkpoint()
    rep.run_window(recipe)
    other_rep, other_recipe = _armed_replayer(
        memo, replay_n_times(4), secret=1 - secret)
    other_rep.run_window(other_recipe)
    assert memo.counts()["misses"] == 2
    assert memo.counts()["hits"] == 0
