"""Reference model of what each platform must hold after a workload.

The check is written from the workload's semantics, not from the
platforms' code: every request writes known keys, and the paper's
privacy rules say which parties may hold those writes.

- Fabric keeps one world-state replica per channel member; every replica
  must equal the last-write-wins map of all requests, and private-data
  collection (PDC) values must sit in every collection member's store
  and never in the channel state.
- Quorum applies a request to the public state of every party when it
  has no ``private_for``, and otherwise only to the private state of the
  submitter and the named parties.  Everyone else holds nothing of it.
- Corda stores one output state per request, in the vaults of exactly
  its participants (submitter plus ``private_for``).

A mismatch is returned as a list of human-readable problems; an empty
list means the platform's committed state is what the requests imply.
"""

from __future__ import annotations

import json


def _writes(workload: str, args: dict) -> dict:
    """Key -> value writes a request's contract call performs."""
    if workload == "kv":
        return {args["key"]: args["value"]}
    if workload == "loc":
        return {args["loc_id"]: {"stage": args["stage"], "amount": args["amount"]}}
    raise ValueError(f"unknown workload {workload!r}")


def _corda_data(workload: str, args: dict) -> dict:
    """The ``data`` of the output state a Corda flow records."""
    if workload == "kv":
        return {"key": args["key"], "value": args["value"]}
    return {
        "loc_id": args["loc_id"], "stage": args["stage"], "amount": args["amount"],
    }


def _readers(request) -> set[str]:
    return {request.submitter, *(request.private_for or ())}


def check_receipts(requests, report) -> list[str]:
    problems = []
    if len(report.receipts) != len(requests):
        problems.append(
            f"{len(report.receipts)} receipts for {len(requests)} requests"
        )
    tx_ids = [receipt.tx_id for receipt in report.receipts]
    if len(set(tx_ids)) != len(tx_ids) or None in tx_ids:
        problems.append("receipts lack distinct transaction ids")
    return problems


def check_fabric(platform, workload: str, requests) -> list[str]:
    problems = []
    if len(platform.channels) != 1:
        return [f"expected one channel, found {sorted(platform.channels)}"]
    (channel,) = platform.channels.values()
    expected: dict = {}
    for request in requests:
        expected.update(_writes(workload, request.args))
    submitters = {request.submitter for request in requests}
    if set(channel.members) != submitters:
        problems.append(
            f"channel members {sorted(channel.members)} are not the "
            f"submitters {sorted(submitters)}"
        )
    for member in sorted(channel.members):
        if channel.state_of(member).snapshot() != expected:
            problems.append(f"fabric replica of {member} differs from the model")
    for request in requests:
        for collection_name, entries in (request.private_args or {}).items():
            collection = channel.collection(collection_name)
            for key, value in entries.items():
                if key in expected:
                    problems.append(f"private key {key} reached channel state")
                for member in sorted(collection.members):
                    if collection.get(member, key) != value:
                        problems.append(
                            f"PDC {collection_name} of {member} lacks {key}"
                        )
    return problems


def check_quorum(platform, workload: str, requests) -> list[str]:
    parties = sorted(platform.parties)
    public: dict = {}
    private: dict[str, dict] = {party: {} for party in parties}
    for request in requests:
        writes = _writes(workload, request.args)
        if request.private_for is None:
            public.update(writes)
        else:
            for party in _readers(request):
                private[party].update(writes)
    problems = []
    for party in parties:
        if platform.public_states[party].snapshot() != public:
            problems.append(f"quorum public state of {party} differs")
        if platform.private_states[party].snapshot() != private[party]:
            problems.append(f"quorum private state of {party} differs")
    return problems


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def check_corda(platform, workload: str, requests) -> list[str]:
    expected: dict[str, list[str]] = {party: [] for party in platform.vaults}
    for request in requests:
        readers = _readers(request)
        record = _canonical(
            [sorted(readers), _corda_data(workload, request.args)]
        )
        for party in readers:
            expected[party].append(record)
    problems = []
    for party, vault in sorted(platform.vaults.items()):
        held = [
            _canonical([sorted(state.participants), state.data])
            for state in vault.unconsumed.values()
        ]
        if sorted(held) != sorted(expected[party]):
            problems.append(f"corda vault of {party} differs from the model")
        if len(vault.transactions) != len(expected[party]):
            problems.append(
                f"corda vault of {party} holds {len(vault.transactions)} "
                f"transactions, expected {len(expected[party])}"
            )
    return problems


CHECKS = {"fabric": check_fabric, "quorum": check_quorum, "corda": check_corda}


def check(platform_name: str, platform, workload: str, requests, report) -> list[str]:
    """All problems with one driven scenario; empty when it is correct."""
    problems = check_receipts(requests, report)
    problems += CHECKS[platform_name](platform, workload, requests)
    return [f"{platform_name}/{workload}: {problem}" for problem in problems]
