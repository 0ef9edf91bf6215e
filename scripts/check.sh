#!/usr/bin/env bash
# Repo health gate: tier-1 tests, the chaos suite, the one-account gate,
# the one-source-for-exposure gate, the self-sufficient messages gate, the
# one-replica-account gate (replicas[ subscripted by the acting node's name only),
# the crypto known-answer gate, the paper-output gates (Table 1, L1 audit, Figure 1, letter-of-credit
# design, K1 knowledge table: benchmarks/test_knowledge_table.py), the telemetry (incl. golden metrics snapshots, tests/telemetry/test_metrics_golden.py, and
# bound hot-path metrics: registry lookups flat in the transaction count, one ordering availability
# check per handled submission, tests/telemetry/test_bound_metrics.py), convergence (incl. the
# golden recovery pin, tests/recovery/test_recovery_golden.py, and replica round trips,
# tests/recovery/test_replica.py) and pipeline
# (incl. one scenario compiler, one Fabric block per cut, tests/platforms/test_fabric_blocks.py,
# and encode once: exact canonical encodings per
# committed transaction, tests/platforms/test_compute_once.py) gates, the no-unhandled-
# delivery gate, the perf-harness smoke run, then the strict self-lint.
#
# Usage: scripts/check.sh [extra pytest args]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x tests "$@"

echo
echo "== chaos suite (fault injection + liveness/privacy invariants + replicated-orderer partitions + healthy fast path bit-identical to an empty plan) =="
python -m pytest -x tests/integration/test_chaos.py tests/network/test_faults.py \
    tests/integration/test_ordering_partition.py \
    benchmarks/test_fault_overhead.py::test_empty_fault_plan_changes_nothing \
    --benchmark-disable

echo
echo "== one-account gate (observe_exposure( only under src/repro/network/, and in the host-admin observer of execution/engines.py: a host administrator is not a network principal) =="
side_accounts=$(grep -rn --include='*.py' 'observe_exposure(' src/repro \
    | grep -v '^src/repro/network/' \
    | grep -v '^src/repro/execution/engines\.py:[0-9]*: *self\._admin_observer(node)\.observe_exposure($' \
    || true)
if [ -n "$side_accounts" ]; then
    echo "observe_exposure( called outside the network substrate:"
    echo "$side_accounts"
    exit 1
fi
echo "one account per principal: ok"

echo
echo "== one-source-for-exposure gate (no exposure= keyword under src/repro; Exposure.of( only inside a payload type's exposure declaration, and in the host-admin observer of execution/engines.py: a message reveals what its payload carries) =="
exposure_labels=$(grep -rn --include='*.py' 'exposure=' src/repro || true)
if [ -n "$exposure_labels" ]; then
    echo "exposure passed beside a payload instead of derived from it:"
    echo "$exposure_labels"
    exit 1
fi
side_declarations=$(find src/repro -name '*.py' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { fn = "" }
    /^ *def / { fn = $2; sub(/\(.*/, "", fn) }
    /Exposure\.of\(/ && fn != "exposure" { print FILENAME ":" FNR ": " $0 }
' | grep -v '^src/repro/execution/engines\.py:[0-9]*: *Exposure\.of($' || true)
if [ -n "$side_declarations" ]; then
    echo "Exposure.of( outside a payload type's exposure declaration:"
    echo "$side_declarations"
    exit 1
fi
echo "one source for exposure: ok"

echo
echo "== self-sufficient messages gate (no handler reads state indexed by message.sender]: a message carries what it stands for) =="
sender_reads=$(grep -rn --include='*.py' 'message\.sender\]' src/repro || true)
if [ -n "$sender_reads" ]; then
    echo "handler reads the sender's state instead of its message:"
    echo "$sender_reads"
    exit 1
fi
echo "handlers read only their message and their own replica: ok"

echo
echo "== one-replica-account gate (replicas[ is subscripted only by the acting node's own name: name, node, member, org, viewer, sender, endorser, initiator, provider or message.recipient; outside readers are recovery/convergence.py, the leak-check lambdas of recovery/scenario.py and the Table 1 probes of platforms/quorum/probes.py: a node reads only its own replica, in recovery too) =="
acting='name|node|member|org|viewer|sender|endorser|initiator|provider|message\.recipient'
replica_reads=$(grep -rnP --include='*.py' "replicas\[(?!(?:$acting)\])" src/repro \
    | grep -v '^src/repro/recovery/convergence\.py:' \
    | grep -vE '^src/repro/recovery/scenario\.py:[0-9]+: +lambda: ' \
    | grep -v '^src/repro/platforms/quorum/probes\.py:' || true)
if [ -n "$replica_reads" ]; then
    echo "a replica read by a name other than the acting node's:"
    echo "$replica_reads"
    exit 1
fi
echo "one replica account: ok"

echo
echo "== crypto known-answer gate (pinned-group vector: small_group() derives the pinned p/q/g/h + cached_test_group() loads with no prime search and refuses a flipped bit + golden signature/HKDF/symmetric-cipher/Quorum-payload vectors + per-key comb tables equal pow + identity-key and associated-data forgeries rejected) =="
python -m pytest -x tests/crypto/test_known_answers.py \
    tests/crypto/test_signatures.py::TestKeyTables \
    tests/crypto/test_signatures.py::TestIdentityKeyForgery \
    tests/crypto/test_zkp.py::TestIdentityKeyForgery \
    tests/crypto/test_symmetric.py::TestAssociatedDataFraming

echo
echo "== Table 1 gate (regenerated matrix agrees with the paper and equals benchmarks/results/table1.txt) =="
python -m repro table1 | diff - <(cat benchmarks/results/table1.txt; echo)

echo
echo "== paper-outputs gate (regenerated L1 audit, Figure 1, letter-of-credit design and K1 knowledge table equal the committed results) =="
python -m pytest -x benchmarks/test_leakage_audit.py benchmarks/test_figure1.py \
    benchmarks/test_letter_of_credit.py benchmarks/test_knowledge_table.py --benchmark-disable
git diff --exit-code -- benchmarks/results/l1_leakage_audit.txt \
    benchmarks/results/figure1.txt benchmarks/results/letter_of_credit_design.txt \
    benchmarks/results/k1_knowledge.txt

echo
echo "== telemetry gate (leakage cross-check in both tracing modes + tracing on/off parity + golden metrics snapshots + bound hot-path metrics + traced LoC workflow per platform + strict lint of repro.telemetry) =="
python -m pytest -x tests/telemetry/test_leakage_crosscheck.py \
    tests/telemetry/test_tracing_modes.py tests/telemetry/test_metrics_golden.py \
    tests/telemetry/test_bound_metrics.py
for platform in fabric corda quorum; do
    python -m repro trace --platform "$platform" > /dev/null
done
python -m repro lint --strict src/repro/telemetry

echo
echo "== convergence gate (crash/recover/catch-up, incl. the golden recovery pin tests/recovery/test_recovery_golden.py and replica round trips tests/recovery/test_replica.py + strict lint of repro.recovery) =="
python -m pytest -x tests/recovery tests/recovery/test_recovery_golden.py \
    tests/recovery/test_replica.py tests/integration/test_recovery_chaos.py \
    tests/platforms/test_quorum_redelivery.py
python -m repro converge
python -m repro lint --strict src/repro/recovery

echo
echo "== pipeline gate (submit/submit_many parity + causal flows + one Fabric block per cut + encode once (tests/platforms/test_compute_once.py: exact canonical encodings per committed tx) + driver + bench smoke + one scenario compiler) =="
# tests/pipeline holds test_causality.py: causal flows and no unhandled delivery.
python -m pytest -x tests/pipeline tests/driver tests/integration/test_driver_leakage.py \
    tests/platforms/test_fabric_blocks.py tests/platforms/test_compute_once.py
python -m repro bench --platform fabric --workload loc --ops 10 --batch 25 > /dev/null
python -m repro bench --platform corda --workload trades --ops 8 --json > /dev/null
python -m repro bench --platform quorum --workload kv --ops 10 --batch 5 > /dev/null
python -m repro lint --strict src/repro/driver
# One scenario compiler: a workload is a hosting row, deployed in one place.
for call in 'deploy_chaincode(' 'register_flow(' 'deploy_contract('; do
    count=$(grep -rhoF --include='*.py' "$call" src/repro/driver | wc -l)
    if [ "$count" -ne 1 ]; then
        echo "$call appears $count times under src/repro/driver/ (one hosting function wants 1):"
        grep -rnF --include='*.py' "$call" src/repro/driver || true
        exit 1
    fi
done
echo "one scenario compiler: ok"

echo
echo "== no-unhandled-delivery gate (every message of the metrics workflow reaches a handler on its recipient) =="
for platform in fabric corda quorum; do
    python -m repro metrics --json --platform "$platform" | python3 -c '
import json, sys
counters = json.load(sys.stdin)["counters"]
unhandled = counters["net.unhandled"]
print("repro metrics {}: {} delivered, {} unhandled".format(
    sys.argv[1], int(counters["net.messages_delivered"]), int(unhandled)))
sys.exit(0 if counters["net.messages_delivered"] > 0 and unhandled == 0 else 1)
' "$platform"
done

echo
echo "== perf harness smoke (oracle correct, no failed operations, nothing left undelivered) =="
for workload in kv loc; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 \
        | python3 -c '
import json, sys
result = json.loads(sys.stdin.read().splitlines()[-1])
undelivered = {
    platform: result["metrics"][platform + ".undelivered_per_tx"]["value"]
    for platform in ("fabric", "corda", "quorum")
}
print("perfbench {}: correct={} failed={} undelivered_per_tx={}".format(
    sys.argv[1], result["correct"], result["failed"], undelivered))
sys.exit(0 if result["correct"] and result["failed"] == 0
         and not any(undelivered.values()) else 1)
' "$workload"
done

echo
echo "== strict self-lint (src/repro + examples) =="
python -m repro lint --self --strict
