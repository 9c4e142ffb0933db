"""The single- and two-qubit Clifford groups with native-gate words.

Randomized benchmarking needs to (a) sample Cliffords uniformly, (b) compose
them, (c) find the inverse of a composed sequence, and (d) express every
element — including the recovery — as a circuit over the device's native
gates.

Both groups are built once (and cached) by breadth-first search over a
generating set (H and S on each qubit, plus CNOTs for two qubits), storing
for every element a word of generator gates that produces it.  The search
runs on packed symplectic tableaux (:mod:`repro.benchmarking.tableau`), whose
integer keys identify a Clifford modulo global phase, so it enumerates the
group modulo phase — 24 elements for one qubit and 11520 for two qubits, the
standard counts.  Element matrices are then replayed from the words.

Generator words found by BFS are short for one qubit (≤ 5 gates, which the
transpiler then collapses to at most two ``sx`` pulses plus virtual Z) and
moderate for two qubits (a few CNOTs plus single-qubit gates), which is the
same order as the hardware-efficient decompositions used by Qiskit's RB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tableau import (
    CliffordTableauIndex,
    generator_tableau,
    identity_tableau,
    tableau_compose,
    tableau_from_unitary,
    tableau_key,
)
from ..circuits.circuit import QuantumCircuit
from ..qobj.gates import cx_gate, hadamard, s_gate
from ..utils.seeding import default_rng
from ..utils.validation import ValidationError

__all__ = ["CliffordElement", "CliffordGroup", "clifford_group"]

#: Generator-gate ids used by the packed word encoding of the group store.
_GATE_IDS = {"h": 0, "s": 1, "cx": 2}
_GATE_NAMES = {v: k for k, v in _GATE_IDS.items()}

#: Expected group orders (modulo phase) used as safety checks.
_EXPECTED_ORDER = {1: 24, 2: 11520}


@dataclass(frozen=True)
class CliffordElement:
    """One Clifford group element.

    Attributes
    ----------
    index:
        Position in the group's element table.
    word:
        Tuple of ``(gate_name, qubit_indices)`` pairs (local indices 0..n-1)
        generating the element, in circuit (time) order.
    matrix:
        A representative unitary (global phase fixed by the construction).
    """

    index: int
    word: tuple[tuple[str, tuple[int, ...]], ...]
    matrix: np.ndarray

    def __repr__(self) -> str:
        return f"CliffordElement(index={self.index}, word_len={len(self.word)})"


class CliffordGroup:
    """The n-qubit Clifford group (n = 1 or 2) with native-gate words."""

    def __init__(self, n_qubits: int):
        _check_qubit_count(n_qubits)
        words, tableaux = _enumerate(n_qubits)
        triples, offsets = _pack_words(words)
        self._assemble(
            n_qubits,
            words,
            _matrices_from_words(n_qubits, triples, offsets),
            CliffordTableauIndex(n_qubits, tableaux),
        )

    def _assemble(
        self,
        n_qubits: int,
        words: list[tuple[tuple[str, tuple[int, ...]], ...]],
        matrices: np.ndarray,
        tableau_index: CliffordTableauIndex,
    ) -> None:
        expected = _EXPECTED_ORDER[n_qubits]
        if len(words) != expected or len(tableau_index) != expected:
            raise ValidationError(
                f"Clifford group construction produced {len(words)} words and "
                f"{len(tableau_index)} tableaux, expected {expected}"
            )
        self.n_qubits = n_qubits
        self._elements = [
            CliffordElement(index=i, word=word, matrix=matrices[i])
            for i, word in enumerate(words)
        ]
        self._tableau_index = tableau_index

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._elements)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**n_qubits``."""
        return 2**self.n_qubits

    def element(self, index: int) -> CliffordElement:
        """The group element at a table index."""
        return self._elements[index]

    @property
    def identity(self) -> CliffordElement:
        """The identity element (index 0)."""
        return self._elements[0]

    def sample(self, rng=None) -> CliffordElement:
        """Uniformly random group element."""
        rng = default_rng(rng)
        return self._elements[int(rng.integers(len(self._elements)))]

    def lookup(self, matrix: np.ndarray) -> CliffordElement:
        """Find the group element equal to ``matrix`` up to global phase."""
        index = self._index_of_unitary(matrix)
        if index is None:
            raise ValidationError("matrix is not an element of the Clifford group")
        return self._elements[index]

    def contains(self, matrix: np.ndarray) -> bool:
        """Whether ``matrix`` is a Clifford (up to global phase)."""
        return self._index_of_unitary(matrix) is not None

    def _index_of_unitary(self, matrix: np.ndarray) -> int | None:
        try:
            tableau = tableau_from_unitary(matrix)
        except ValidationError:
            return None
        # a tableau key does not encode its qubit count
        if tableau.n != self.n_qubits:
            return None
        return self._tableau_index.index_of_tableau(tableau)

    def compose(self, first: CliffordElement, second: CliffordElement) -> CliffordElement:
        """Group element of ``second ∘ first`` (``first`` applied first)."""
        return self._elements[self.compose_index(first.index, second.index)]

    def inverse(self, element: CliffordElement) -> CliffordElement:
        """The group inverse of ``element``."""
        return self._elements[self.inverse_index(element.index)]

    def tableau_index(self) -> CliffordTableauIndex:
        """The group's symplectic-tableau index.

        Maps every element to its packed tableau so composition and
        inversion are integer arithmetic plus a dict lookup — no ``2^n``
        matrix products.
        """
        return self._tableau_index

    def compose_index(self, first: int, second: int) -> int:
        """Index of ``second ∘ first`` by element index (see
        :meth:`CliffordTableauIndex.compose_index`)."""
        return self._tableau_index.compose_index(first, second)

    def inverse_index(self, index: int) -> int:
        """Index of the group inverse by element index."""
        return self._tableau_index.inverse_index(index)

    # ------------------------------------------------------------------ #
    # circuit output
    # ------------------------------------------------------------------ #
    def append_to_circuit(
        self,
        circuit: QuantumCircuit,
        element: CliffordElement,
        physical_qubits: tuple[int, ...] | list[int],
    ) -> QuantumCircuit:
        """Append the element's native-gate word to ``circuit``.

        ``physical_qubits`` maps the element's local qubits 0..n-1 onto the
        circuit's (physical) qubit indices.
        """
        physical = tuple(int(q) for q in physical_qubits)
        if len(physical) != self.n_qubits:
            raise ValidationError(
                f"expected {self.n_qubits} physical qubits, got {len(physical)}"
            )
        for name, local_qubits in element.word:
            mapped = [physical[q] for q in local_qubits]
            if name == "h":
                circuit.h(mapped[0])
            elif name == "s":
                circuit.s(mapped[0])
            elif name == "cx":
                circuit.cx(mapped[0], mapped[1])
            else:  # pragma: no cover - generators are limited to h/s/cx
                raise ValidationError(f"unexpected generator gate {name!r}")
        return circuit

    def average_word_length(self) -> float:
        """Mean number of generator gates per element (diagnostic)."""
        return float(np.mean([len(e.word) for e in self._elements]))

    # ------------------------------------------------------------------ #
    # persistence (consumed by repro.benchmarking.store)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the enumerated group into plain arrays.

        The payload (generator words as packed int triples, tableau
        rows/phases) is everything needed to rebuild the group without
        re-running the breadth-first enumeration; it is what
        :class:`~repro.benchmarking.store.CliffordChannelStore` persists so
        warm sessions skip the two-qubit search.  Element matrices are not
        part of it: :meth:`from_arrays` re-derives them bit-identically from
        the words (see :func:`_matrices_from_words`).

        Returns
        -------
        dict of str to ndarray
            ``words`` (total_gates, 3) int8 ``(gate_id, q0, q1)`` triples,
            ``word_offsets`` (N+1,) int32 and ``tableau_rows`` /
            ``tableau_phases`` (N, 2n) uint8.
        """
        triples, offsets = _pack_words([e.word for e in self._elements])
        rows, phases = self._tableau_index.to_arrays()
        return {
            "words": triples,
            "word_offsets": offsets,
            "tableau_rows": rows,
            "tableau_phases": phases,
        }

    @classmethod
    def from_arrays(cls, n_qubits: int, arrays: dict[str, np.ndarray]) -> "CliffordGroup":
        """Rebuild an enumerated group from :meth:`to_arrays` output.

        Skips the breadth-first search entirely: words and tableaux are
        restored from the arrays and the element matrices are re-derived
        from the words, bit-identical to the eager enumeration.
        """
        _check_qubit_count(n_qubits)
        offsets = np.asarray(arrays["word_offsets"], dtype=np.int64)
        expected = _EXPECTED_ORDER[n_qubits]
        if len(offsets) != expected + 1:
            raise ValidationError(
                f"group arrays describe {len(offsets) - 1} elements, expected {expected}"
            )
        triples = np.asarray(arrays["words"], dtype=np.int64)
        words = [
            tuple(
                (
                    _GATE_NAMES[int(gate_id)],
                    (int(q0),) if q1 < 0 else (int(q0), int(q1)),
                )
                for gate_id, q0, q1 in triples[offsets[index] : offsets[index + 1]]
            )
            for index in range(expected)
        ]
        group = cls.__new__(cls)
        group._assemble(
            n_qubits,
            words,
            _matrices_from_words(n_qubits, arrays["words"], offsets),
            CliffordTableauIndex.from_arrays(
                n_qubits, arrays["tableau_rows"], arrays["tableau_phases"]
            ),
        )
        return group


def _check_qubit_count(n_qubits: int) -> None:
    if n_qubits not in (1, 2):
        raise ValidationError(f"CliffordGroup supports 1 or 2 qubits, got {n_qubits}")


def _enumerate(n_qubits: int) -> tuple[list[tuple], list]:
    """Breadth-first search of the group over packed tableaux.

    Every new element is ``generator ∘ parent`` for the first parent in BFS
    order and the first generator in :func:`_generator_list` order that
    reaches it; elements are deduplicated on :func:`tableau_key`, which is
    unique per Clifford modulo global phase.

    Returns
    -------
    words, tableaux
        Generator word and tableau of every element, in element-index order.
    """
    gates = [gate for gate, _ in _generator_list(n_qubits)]
    generators = [generator_tableau(name, qubits, n_qubits) for name, qubits in gates]
    tableaux = [identity_tableau(n_qubits)]
    words: list[tuple] = [()]
    seen = {tableau_key(tableaux[0])}
    parent = 0
    while parent < len(tableaux):
        for gate, generator in zip(gates, generators):
            tableau = tableau_compose(tableaux[parent], generator)
            key = tableau_key(tableau)
            if key not in seen:
                seen.add(key)
                tableaux.append(tableau)
                words.append(words[parent] + (gate,))
        parent += 1
    return words, tableaux


def _pack_words(
    words: list[tuple[tuple[str, tuple[int, ...]], ...]],
) -> tuple[np.ndarray, np.ndarray]:
    """Words as ``(total_gates, 3)`` int8 ``(gate_id, q0, q1)`` triples plus
    ``(N+1,)`` int32 offsets (``q1 = -1`` for single-qubit gates)."""
    triples: list[tuple[int, int, int]] = []
    offsets = [0]
    for word in words:
        for name, qubits in word:
            q0 = qubits[0]
            q1 = qubits[1] if len(qubits) > 1 else -1
            triples.append((_GATE_IDS[name], q0, q1))
        offsets.append(len(triples))
    return (
        np.array(triples, dtype=np.int8).reshape(-1, 3),
        np.array(offsets, dtype=np.int32),
    )


def _cx_reversed() -> np.ndarray:
    """CNOT with qubit 1 (least significant factor) as control."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )


def _generator_list(n_qubits: int) -> list[tuple[tuple[str, tuple[int, ...]], np.ndarray]]:
    """Generator gates ``((name, local_qubits), matrix)`` of the BFS.

    The order fixes the breadth-first enumeration (and so every word); the
    matrices are the exact operands :func:`_matrices_from_words` multiplies.
    """
    h = hadamard()
    s = s_gate()
    if n_qubits == 1:
        return [(("h", (0,)), h), (("s", (0,)), s)]
    eye = np.eye(2, dtype=complex)
    return [
        (("h", (0,)), np.kron(h, eye)),
        (("h", (1,)), np.kron(eye, h)),
        (("s", (0,)), np.kron(s, eye)),
        (("s", (1,)), np.kron(eye, s)),
        (("cx", (0, 1)), cx_gate()),
        (("cx", (1, 0)), _cx_reversed()),
    ]


def _matrices_from_words(
    n_qubits: int, triples: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Derive every element matrix from the generator words.

    The breadth-first search reaches every element as ``generator ∘
    parent``, where the parent's word is the element's word minus its last
    gate, so each matrix is ``generator_matrix @ parent_matrix`` in index
    order.  A fresh enumeration and a group loaded from the store both build
    their matrices here, from the same operands in the same order, so the
    two are bit-identical and the store never holds matrices.

    Parameters
    ----------
    n_qubits : int
        1 or 2.
    triples : ndarray
        ``(total_gates, 3)`` packed ``(gate_id, q0, q1)`` rows.
    offsets : ndarray
        ``(N+1,)`` word boundaries: element ``i`` owns rows
        ``triples[offsets[i]:offsets[i+1]]``.

    Returns
    -------
    ndarray
        ``(N, d, d)`` complex element matrices in index order.
    """
    gens: dict[tuple[int, int, int], np.ndarray] = {}
    for (name, qubits), matrix in _generator_list(n_qubits):
        q0 = qubits[0]
        q1 = qubits[1] if len(qubits) > 1 else -1
        gens[(_GATE_IDS[name], q0, q1)] = matrix
    packed = np.ascontiguousarray(triples, dtype=np.int8)
    n_elements = len(offsets) - 1
    dim = 2**n_qubits
    matrices = np.empty((n_elements, dim, dim), dtype=complex)
    matrices[0] = np.eye(dim, dtype=complex)
    index_by_word: dict[bytes, int] = {packed[0:0].tobytes(): 0}
    for index in range(1, n_elements):
        start, stop = int(offsets[index]), int(offsets[index + 1])
        if stop <= start:
            raise ValidationError(
                f"group arrays element {index} has an empty word but is not the identity"
            )
        prefix = packed[start : stop - 1].tobytes()
        parent = index_by_word.get(prefix)
        if parent is None:
            raise ValidationError(
                f"group arrays element {index} has no BFS parent for its word prefix"
            )
        gate_id, q0, q1 = (int(v) for v in packed[stop - 1])
        generator = gens.get((gate_id, q0, q1))
        if generator is None:
            raise ValidationError(
                f"group arrays element {index} uses unknown generator {(gate_id, q0, q1)}"
            )
        matrices[index] = generator @ matrices[parent]
        index_by_word[packed[start:stop].tobytes()] = index
    return matrices


#: Process-wide group cache (one entry per qubit count).
_GROUP_CACHE: dict[int, CliffordGroup] = {}


def clifford_group(n_qubits: int, store=None) -> CliffordGroup:
    """Cached accessor for the 1- or 2-qubit Clifford group.

    Parameters
    ----------
    n_qubits : int
        1 or 2.
    store : optional
        A persistent store selector (``"auto"``, a directory path, a
        :class:`~repro.benchmarking.store.CliffordChannelStore`, or ``None``
        for in-process only — see
        :func:`~repro.benchmarking.store.resolve_store`).  With a store, the
        enumerated group (words and tableaux) is loaded from disk when
        present — skipping the two-qubit breadth-first search — and
        persisted after a cold build.

    Returns
    -------
    CliffordGroup
        The (process-cached) group.
    """
    from .store import resolve_store

    store = resolve_store(store)
    group = _GROUP_CACHE.get(n_qubits)
    if group is None:
        arrays = store.load_group_arrays(n_qubits) if store is not None else None
        if arrays is not None:
            try:
                group = CliffordGroup.from_arrays(n_qubits, arrays)
            except ValidationError:
                # corrupt or stale file: drop it and self-heal via a rebuild
                store.remove_group_arrays(n_qubits)
                group = None
        if group is None:
            group = CliffordGroup(n_qubits)
        _GROUP_CACHE[n_qubits] = group
    if store is not None:
        store.ensure_group_saved(group)
    return group
