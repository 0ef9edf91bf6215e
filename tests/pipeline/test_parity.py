"""Pipeline parity: ``submit``/``submit_many`` vs the native entrypoints.

The unified pipeline must be a pure re-plumbing: for the same seeded
network and the same logical transactions, routing through
:meth:`Platform.submit` / :meth:`Platform.submit_many` has to produce
bit-identical committed state (state fingerprints), identical validity
outcomes, and identical observer knowledge (what every node and the
ordering principal learned) as calling each platform's own entrypoints —
on a clean network AND under an injected fault plan.
"""

from __future__ import annotations

import pytest

from repro.driver import build_scenario
from repro.faults import FaultPlan

PLATFORMS = ("fabric", "corda", "quorum")


def _fault_plan() -> FaultPlan:
    """Mild but real: global slowdown, a lossy uninvolved link, a crash."""
    return (
        FaultPlan()
        .slow_all(4.0, start=0.0, end=2.0)
        .set_link_loss("OrgD", "OrgE", 0.3)
        .crash_node("OrgE", start=0.0, end=0.5)
    )


def _native_submit_one(platform, request):
    """Replay *request* through the platform's own entrypoint."""
    name = platform.platform_name
    if name == "fabric":
        channel = platform.contract_channels[request.contract_id]
        return platform.invoke(
            channel, request.submitter, request.contract_id,
            request.function, dict(request.args),
            endorsers=request.options.get("endorsers"),
            collection_writes=request.private_args,
        )
    if name == "corda":
        builder = platform.flows[(request.contract_id, request.function)]
        return platform.run_flow(request.submitter, builder(platform, request))
    if request.private_for:
        return platform.send_private_transaction(
            request.submitter, request.contract_id, request.function,
            dict(request.args), private_for=list(request.private_for),
        )
    return platform.send_public_transaction(
        request.submitter, request.contract_id, request.function,
        dict(request.args),
    )


def _native_submit_batch(platform, requests):
    """Replay a whole batch the way each platform natively would."""
    if platform.platform_name == "fabric":
        # Endorse everything against one snapshot, then order per channel
        # — the raw propose/submit_batch loop the S1 benchmarks used.
        proposals = [
            (
                platform.contract_channels[request.contract_id],
                platform.propose(
                    platform.contract_channels[request.contract_id],
                    request.submitter, request.contract_id,
                    request.function, dict(request.args),
                    endorsers=request.options.get("endorsers"),
                    collection_writes=request.private_args,
                ),
            )
            for request in requests
        ]
        by_channel: dict[str, list] = {}
        for channel, proposal in proposals:
            by_channel.setdefault(channel, []).append(proposal)
        results = []
        for channel, channel_proposals in by_channel.items():
            results.extend(platform.submit_batch(
                channel, channel_proposals, force_cut=True
            ))
        return results
    return [_native_submit_one(platform, request) for request in requests]


def _observer_view(platform) -> dict:
    return {
        node: platform.network.node(node).observer.knowledge()
        for node in platform.network.nodes()
    }


def _pair(platform_name: str, workload: str, ops: int, faulted: bool,
          seed: str, skew: float = 0.0):
    native = build_scenario(platform_name, workload, ops, skew=skew, seed=seed)
    piped = build_scenario(platform_name, workload, ops, skew=skew, seed=seed)
    if faulted:
        native.platform.inject_faults(_fault_plan())
        piped.platform.inject_faults(_fault_plan())
    assert native.requests == piped.requests
    return native, piped


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_single_submission_parity(platform_name, faulted):
    """submit() == the platform's own one-at-a-time entrypoint."""
    native, piped = _pair(
        platform_name, "trades", 8, faulted, seed="parity-single"
    )
    for request in native.requests:
        _native_submit_one(native.platform, request)
    for request in piped.requests:
        receipt = piped.platform.submit(request)
        assert receipt.committed
        assert receipt.platform == platform_name
    assert (
        piped.platform.state_fingerprint()
        == native.platform.state_fingerprint()
    )
    assert _observer_view(piped.platform) == _observer_view(native.platform)


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_batch_submission_parity(platform_name, faulted):
    """submit_many() == the native batch path, conflicts included."""
    native, piped = _pair(
        platform_name, "kv", 20, faulted, seed="parity-batch", skew=1.2
    )
    native_results = _native_submit_batch(native.platform, native.requests)
    receipts = piped.platform.submit_many(piped.requests, force_cut=True)
    assert len(receipts) == len(native_results) == 20
    if platform_name == "fabric":
        # Same snapshot, same Zipfian keys: the exact same transactions
        # must win and lose the MVCC race on both paths.
        assert [r.committed for r in receipts] == [
            result.valid for result in native_results
        ]
    else:
        assert all(r.committed for r in receipts)
    assert (
        piped.platform.state_fingerprint()
        == native.platform.state_fingerprint()
    )
    assert _observer_view(piped.platform) == _observer_view(native.platform)


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_loc_mix_parity_with_private_args(platform_name):
    """The LoC stage mix (PDC writes on Fabric) also fingerprint-matches."""
    native, piped = _pair(
        platform_name, "loc", 6, faulted=False, seed="parity-loc"
    )
    for request in native.requests:
        _native_submit_one(native.platform, request)
    for request in piped.requests:
        piped.platform.submit(request)
    assert (
        piped.platform.state_fingerprint()
        == native.platform.state_fingerprint()
    )


def test_fingerprint_sees_state_differences():
    """Sanity: the fingerprint is not a constant — extra tx changes it."""
    a = build_scenario("fabric", "kv", 4, seed="parity-diff")
    b = build_scenario("fabric", "kv", 4, seed="parity-diff")
    for request in a.requests:
        a.platform.submit(request)
    for request in b.requests[:-1]:
        b.platform.submit(request)
    assert a.platform.state_fingerprint() != b.platform.state_fingerprint()
