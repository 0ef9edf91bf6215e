#!/usr/bin/env python3
"""Running your own ordering service (paper Section 3.4), realistically.

Two mitigations for ordering-service visibility, composed:

1. The channel members run the Fabric orderer themselves, replicated over
   one node each — its full visibility is contained to the consortium
   (and survives a leader crash), but note how replication *multiplies*
   which operators see the data.
2. For the data itself, the parties share only ciphertext: one symmetric
   encryption of the payload plus an ElGamal key-wrap per authorized
   reader, the PKI sharing pattern Section 2.2 describes.
"""

from repro.common.rng import DeterministicRNG
from repro.crypto.elgamal import receive_encrypted, share_encrypted
from repro.execution.contracts import SmartContract
from repro.platforms.fabric import FabricNetwork


def record(view, args):
    view.put(args["key"], args["value"])


def main() -> None:
    rng = DeterministicRNG("private-ordering-example")
    members = ("BankA", "BankB", "BankC")
    net = FabricNetwork(seed="private-ordering", orderer_operators=members)
    for name in members:
        net.onboard(name)
    net.create_channel("fx", list(members))
    net.deploy_chaincode("fx", SmartContract(
        contract_id="fx-cc", version=1, language="python-chaincode",
        functions={"record": record},
    ), ["BankA", "BankB"])
    keys = {name: net.party(name).key for name in members}

    print("1. encrypt the trade payload; wrap the key to BankA and BankB only")
    payload = b'{"instrument": "FX-SWAP", "notional": 25000000}'
    ciphertext, wraps = share_encrypted(
        payload,
        {name: keys[name].public for name in ("BankA", "BankB")},
        rng,
    )
    print(f"   ciphertext: {ciphertext.wire_size()} bytes, "
          f"{len(wraps)} key wraps")

    print("2. order the (encrypted) transaction on the member-run orderer")
    orderer = net.orderer
    print(f"   replicas: {', '.join(orderer.replicas)}")
    print(f"   leader: {orderer.require_available()}")
    net.invoke("fx", "BankA", "fx-cc", "record",
               {"key": "trade/enc", "value": ciphertext.body.hex()})

    print("3. crash the leader mid-stream; the cluster keeps ordering")
    net.network.crash_node(orderer.require_available())
    print(f"   new leader: {orderer.require_available()}")
    net.invoke("fx", "BankB", "fx-cc", "record",
               {"key": "trade2/enc", "value": "..."})
    leader_log = orderer.logs[orderer.require_available()]
    live = [r for r in orderer.replicas if not net.network.is_crashed(r)]
    print(f"   committed entries: {len(leader_log)}, logs consistent: "
          f"{all(orderer.logs[r] == leader_log for r in live)}")

    print("4. who learned what?")
    seen = [
        operator
        for operator, observer in zip(orderer.operators, orderer.observers())
        if observer.messages_observed
    ]
    print(f"   replica operators with visibility: {seen}")
    print(f"   together they saw: {orderer.knowledge()['data_keys']}")
    print("   (the cluster sees participants and ciphertext keys — "
          "contained to the consortium, not eliminated)")

    print("5. authorized readers decrypt; BankC cannot")
    for reader in ("BankA", "BankB"):
        recovered = receive_encrypted(ciphertext, wraps[reader], keys[reader])
        print(f"   {reader}: {recovered.decode()[:40]}...")
    try:
        receive_encrypted(ciphertext, wraps["BankA"], keys["BankC"])
    except Exception as exc:
        print(f"   BankC: {type(exc).__name__} (no key wrap addressed to it)")


if __name__ == "__main__":
    main()
