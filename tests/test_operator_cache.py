"""Operator matrix caches: hit/miss semantics of the CSC cache, stable
hashing of equal Hamiltonians, fresh CSR matrices, eviction, and
compiler-level reuse."""

import numpy as np
import pytest

from repro import QTurboCompiler, RydbergAAIS
from repro.devices import paper_example_spec
from repro.hamiltonian import Hamiltonian, PauliString
from repro.hamiltonian.expression import x, z, zz
from repro.models import ising_chain
from repro.sim import operators
from repro.sim.operators import (
    MatrixCache,
    hamiltonian_matrix,
    hamiltonian_matrix_csc,
    operator_cache_stats,
    pauli_string_matrix,
)
from repro.sim.propagators import clear_simulation_caches


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts and ends with empty caches."""
    clear_simulation_caches()
    yield
    clear_simulation_caches()


class TestHitMissSemantics:
    def test_first_build_misses_second_hits(self):
        h = zz(0, 1) + 0.5 * x(0)
        hamiltonian_matrix_csc(h, 2)
        stats = operator_cache_stats()["hamiltonian_csc"]
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        hamiltonian_matrix_csc(h, 2)
        stats = operator_cache_stats()["hamiltonian_csc"]
        assert stats["hits"] == 1
        assert stats["hit_rate"] == 0.5

    def test_different_num_qubits_are_distinct_entries(self):
        h = zz(0, 1)
        hamiltonian_matrix_csc(h, 2)
        hamiltonian_matrix_csc(h, 3)
        stats = operator_cache_stats()["hamiltonian_csc"]
        assert stats["misses"] == 2
        assert stats["hits"] == 0

    def test_pauli_string_cache_hits(self):
        s = PauliString.from_pairs([(0, "X"), (1, "Z")])
        pauli_string_matrix(s, 2)
        pauli_string_matrix(s, 2)
        stats = operator_cache_stats()["pauli_string"]
        assert stats["hits"] >= 1

    def test_clear_resets_statistics(self):
        hamiltonian_matrix_csc(zz(0, 1), 2)
        clear_simulation_caches()
        stats = operator_cache_stats()
        for cache in ("pauli_string", "hamiltonian_csc"):
            assert stats[cache]["hits"] == 0
            assert stats[cache]["misses"] == 0
            assert stats[cache]["size"] == 0

    def test_cached_value_is_correct(self):
        h = zz(0, 1) - 0.7 * z(0)
        first = hamiltonian_matrix(h, 2).toarray()
        second = hamiltonian_matrix(h, 2).toarray()
        assert np.array_equal(first, second)


class TestCopyIsolation:
    def test_mutating_returned_matrix_does_not_poison_cache(self):
        h = zz(0, 1)
        m = hamiltonian_matrix(h, 2)
        m.data[:] = 99.0
        clean = hamiltonian_matrix(h, 2).toarray()
        expected = np.diag([1, -1, -1, 1]).astype(complex)
        assert np.allclose(clean, expected)


class TestHashStability:
    def test_equal_hamiltonians_share_canonical_key(self):
        a = zz(0, 1) + 0.5 * x(0)
        b = 0.5 * x(0) + zz(0, 1)  # different construction order
        assert a == b
        assert a.canonical_key() == b.canonical_key()
        assert a.stable_hash() == b.stable_hash()

    def test_equal_hamiltonians_share_cache_entry(self):
        a = zz(0, 1) + 0.5 * x(0)
        b = 0.5 * x(0) + zz(0, 1)
        hamiltonian_matrix_csc(a, 2)
        hamiltonian_matrix_csc(b, 2)
        stats = operator_cache_stats()["hamiltonian_csc"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_different_coefficients_differ(self):
        assert zz(0, 1).stable_hash() != (2.0 * zz(0, 1)).stable_hash()
        assert (
            zz(0, 1).canonical_key() != (2.0 * zz(0, 1)).canonical_key()
        )

    def test_different_strings_differ(self):
        assert x(0).stable_hash() != z(0).stable_hash()

    def test_pauli_string_stable_hash(self):
        a = PauliString.from_pairs([(0, "X"), (2, "Z")])
        b = PauliString.from_pairs([(2, "Z"), (0, "X")])
        assert a.stable_hash() == b.stable_hash()
        assert a.canonical_key == b.canonical_key
        assert a.stable_hash() != PauliString.single("Y", 0).stable_hash()

    def test_hash_is_hex_digest(self):
        digest = ising_chain(3).stable_hash()
        assert isinstance(digest, str)
        int(digest, 16)  # valid hex


class TestEviction:
    def test_lru_eviction_counts(self, monkeypatch):
        monkeypatch.setattr(operators, "_csc_cache", MatrixCache(2))
        hamiltonian_matrix_csc(z(0), 1)
        hamiltonian_matrix_csc(x(0), 1)
        hamiltonian_matrix_csc(z(0) + x(0), 1)  # evicts z(0)
        stats = operator_cache_stats()["hamiltonian_csc"]
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        hamiltonian_matrix_csc(z(0), 1)  # must rebuild
        assert operator_cache_stats()["hamiltonian_csc"]["misses"] == 4

    def test_zero_capacity_disables_storage(self):
        cache = MatrixCache(0)
        cache.put("key", "value")
        assert len(cache) == 0
        assert cache.get("key") is None

    def test_matrix_cache_lru_order(self):
        cache = MatrixCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b, not a
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3


class TestCompilerStructuralCache:
    def test_repeat_compiles_reuse_linear_system(self):
        aais = RydbergAAIS(3, spec=paper_example_spec())
        compiler = QTurboCompiler(aais)
        target = ising_chain(3)
        first = compiler.compile(target, 1.0)
        second = compiler.compile(target, 2.0)  # same structure, new time
        stats = compiler.system_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert first.success and second.success

    def test_cached_system_gives_identical_results(self):
        aais = RydbergAAIS(3, spec=paper_example_spec())
        compiler = QTurboCompiler(aais)
        fresh = QTurboCompiler(aais, system_cache_size=0)
        target = ising_chain(3)
        compiler.compile(target, 1.0)  # warm the cache
        warm = compiler.compile(target, 1.0)
        cold = fresh.compile(target, 1.0)
        assert warm.segments[0].values == cold.segments[0].values
        assert warm.execution_time == cold.execution_time

    def test_distinct_structures_get_distinct_systems(self):
        aais = RydbergAAIS(3, spec=paper_example_spec())
        compiler = QTurboCompiler(aais)
        compiler.compile(ising_chain(3), 1.0)
        compiler.compile(Hamiltonian({PauliString.single("X", 0): 1.0}), 1.0)
        stats = compiler.system_cache_stats()
        assert stats["misses"] == 2
        assert stats["size"] == 2
