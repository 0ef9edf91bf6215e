"""Simulated TEEs: attestation, isolation, rollback detection."""

from __future__ import annotations

import pytest

from repro.common.errors import AttestationError, CryptoError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes, from_canonical_json
from repro.crypto.tee import Attestation, Enclave, Manufacturer, measure_code


def adder(args):
    return {"sum": args["a"] + args["b"]}


def multiplier(args):
    return {"product": args["a"] * args["b"]}


@pytest.fixture
def manufacturer():
    return Manufacturer()


@pytest.fixture
def enclave(manufacturer):
    return manufacturer.provision()


def run_in_enclave(enclave, args, nonce=b"n1"):
    rng = DeterministicRNG("tee-test")
    session = enclave.establish_session_key(rng)
    ct = session.encrypt(canonical_bytes(args), rng)
    out, attestation = enclave.execute(ct, nonce)
    result = from_canonical_json(session.decrypt(out).decode("utf-8"))
    return result, attestation


class TestExecution:
    def test_computation_correct(self, enclave):
        enclave.load(adder)
        result, __ = run_in_enclave(enclave, {"a": 2, "b": 3})
        assert result == {"sum": 5}

    def test_no_code_loaded_rejected(self, enclave, rng):
        session_error = None
        with pytest.raises(CryptoError):
            enclave.execute(None, b"n")

    def test_output_encrypted_for_caller_only(self, enclave):
        enclave.load(adder)
        rng = DeterministicRNG("caller")
        session = enclave.establish_session_key(rng)
        ct = session.encrypt(canonical_bytes({"a": 1, "b": 1}), rng)
        out, __ = enclave.execute(ct, b"n")
        # The raw output bytes are not the plaintext result.
        assert b"sum" not in out.body


class TestAttestation:
    def test_valid_attestation(self, manufacturer, enclave):
        measurement = enclave.load(adder)
        __, attestation = run_in_enclave(enclave, {"a": 1, "b": 2}, nonce=b"x")
        manufacturer.verify_attestation(attestation, measurement, b"x")

    def test_measurement_identifies_code(self):
        assert measure_code(adder) != measure_code(multiplier)

    def test_wrong_measurement_rejected(self, manufacturer, enclave):
        enclave.load(adder)
        __, attestation = run_in_enclave(enclave, {"a": 1, "b": 2}, nonce=b"x")
        with pytest.raises(AttestationError, match="measurement"):
            manufacturer.verify_attestation(
                attestation, measure_code(multiplier), b"x"
            )

    def test_replayed_nonce_rejected(self, manufacturer, enclave):
        measurement = enclave.load(adder)
        __, attestation = run_in_enclave(enclave, {"a": 1, "b": 2}, nonce=b"x")
        with pytest.raises(AttestationError, match="nonce"):
            manufacturer.verify_attestation(attestation, measurement, b"y")

    def test_unknown_enclave_rejected(self, manufacturer, enclave):
        measurement = enclave.load(adder)
        __, attestation = run_in_enclave(enclave, {"a": 1, "b": 2}, nonce=b"x")
        forged = Attestation(**{**attestation.__dict__, "enclave_id": "enclave-9999"})
        with pytest.raises(AttestationError, match="unknown enclave"):
            manufacturer.verify_attestation(forged, measurement, b"x")

    def test_counter_advances_per_execution(self, manufacturer, enclave):
        measurement = enclave.load(adder)
        __, att1 = run_in_enclave(enclave, {"a": 1, "b": 2}, nonce=b"x1")
        __, att2 = run_in_enclave(enclave, {"a": 1, "b": 2}, nonce=b"x2")
        assert att2.counter == att1.counter + 1

    def test_rollback_detected(self, manufacturer, enclave):
        measurement = enclave.load(adder)
        __, att1 = run_in_enclave(enclave, {"a": 1, "b": 2}, nonce=b"x1")
        __, att2 = run_in_enclave(enclave, {"a": 1, "b": 2}, nonce=b"x2")
        # A relying party that has seen counter=2 rejects counter=1.
        with pytest.raises(AttestationError, match="rollback"):
            manufacturer.verify_attestation(
                att1, measurement, b"x1", minimum_counter=att2.counter
            )


class TestIsolation:
    def test_host_log_contains_only_sizes(self, enclave):
        enclave.load(adder)
        run_in_enclave(enclave, {"a": 10, "b": 20})
        for entry in enclave.host_log:
            assert isinstance(entry.visible_bytes, int)

    def test_host_log_records_operations(self, enclave):
        enclave.load(adder)
        run_in_enclave(enclave, {"a": 1, "b": 2})
        operations = [entry.operation for entry in enclave.host_log]
        assert operations == ["load", "key-exchange", "execute-input", "execute-output"]
