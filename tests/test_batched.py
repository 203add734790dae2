"""Tests for the batched execution engine (backends, counters)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import VectorizedBackend
from repro.batched import KernelLaunchCounter, SerialBackend, get_backend


def random_batch(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for shape in shapes]


class TestCounters:
    def test_record_and_totals(self):
        counter = KernelLaunchCounter()
        counter.record("gemm", 3)
        counter.record("gemm", 2)
        counter.record("qr")
        assert counter.total() == 6
        assert counter.total_calls() == 3
        assert counter.by_operation()["gemm"] == 5
        assert counter.calls_by_operation()["gemm"] == 2

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            KernelLaunchCounter().record("x", -1)

    def test_concurrent_records_are_exact(self):
        """Serving threads share one counter: no record may be lost."""
        counter = KernelLaunchCounter()
        threads, per_thread = 8, 50_000

        def work():
            for _ in range(per_thread):
                counter.record("hss_getrs")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert counter.by_operation() == {"hss_getrs": threads * per_thread}
        assert counter.calls_by_operation() == {"hss_getrs": threads * per_thread}


class TestBackendFactory:
    def test_names(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert get_backend(backend) is backend

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            get_backend("tpu")
        with pytest.raises(ValueError, match="'serial', 'vectorized'"):
            get_backend("cpu")

    def test_counter_attached(self):
        counter = KernelLaunchCounter()
        backend = SerialBackend(counter=counter)
        assert backend.counter is counter


@pytest.mark.parametrize("backend_name", ["serial", "vectorized"])
class TestBackendPrimitives:
    def test_batched_gemm_scatter(self, backend_name):
        """Block rows of fan-in 2 with ``alpha = -2`` on column windows of
        3-D stacks (strided views, as the construction engine passes them)."""
        backend = get_backend(backend_name)
        rng = np.random.default_rng(1)
        src_all = rng.standard_normal((3, 4, 6))
        dest_all = np.ones((2, 5, 6))
        src, dest = src_all[:, :, :4], dest_all[:, :, :4]
        a = rng.standard_normal((2, 5, 8))
        dest_pos, src_pos = np.array([1, 0]), np.array([0, 1, 2, 0])
        expected = dest_all.copy()
        expected[1, :, :4] -= 2.0 * a[0] @ np.vstack([src[0], src[1]])
        expected[0, :, :4] -= 2.0 * a[1] @ np.vstack([src[2], src[0]])
        backend.batched_gemm_scatter(dest, dest_pos, a, src, src_pos, alpha=-2.0)
        assert np.allclose(dest_all, expected)

    def test_batched_gemm_scatter_uniform_stack(self, backend_name):
        """The compiled-plan case: pre-stacked operands over 3-D stacks."""
        backend = get_backend(backend_name)
        rng = np.random.default_rng(5)
        src = rng.standard_normal((4, 3, 2))
        dest = np.ones((3, 5, 2))
        a = rng.standard_normal((2, 5, 6))
        dest_pos, src_pos = np.array([2, 0]), np.array([0, 3, 2, 1])
        expected = dest.copy()
        for i, row in enumerate(dest_pos):
            expected[row] += a[i] @ np.vstack(src[src_pos[2 * i : 2 * i + 2]])
        backend.batched_gemm_scatter(dest, dest_pos, a, src, src_pos)
        assert np.allclose(dest, expected)
        assert backend.counter.by_operation() == {"batched_scatter_gemm": 1}

    def test_batched_min_r_diag(self, backend_name):
        backend = get_backend(backend_name)
        rng = np.random.default_rng(8)
        full = rng.standard_normal((20, 6))
        deficient = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 6))
        wide = rng.standard_normal((3, 6))
        mins = backend.batched_min_r_diag([full, deficient, wide])
        assert mins[0] > 1e-3
        assert mins[1] < 1e-8
        assert mins[2] == 0.0

    def test_batched_row_id(self, backend_name):
        backend = get_backend(backend_name)
        rng = np.random.default_rng(9)
        mats = [
            rng.standard_normal((15, 3)) @ rng.standard_normal((3, 8)),
            rng.standard_normal((10, 2)) @ rng.standard_normal((2, 8)),
        ]
        decs = backend.batched_row_id(mats, rel_tol=1e-10)
        assert decs[0].rank == 3 and decs[1].rank == 2
        for mat, dec in zip(mats, decs):
            assert np.allclose(dec.reconstruct(mat[dec.skeleton]), mat, atol=1e-8)

    def test_batched_row_id_per_item_abs_tol(self, backend_name):
        backend = get_backend(backend_name)
        mat = np.diag([10.0, 1.0, 1e-6])
        decs = backend.batched_row_id([mat, mat], abs_tols=[1e-3, 1e-9])
        assert decs[0].rank == 2
        assert decs[1].rank == 3

    def test_batched_random_normal(self, backend_name):
        backend = get_backend(backend_name)
        omega = backend.batched_random_normal((100, 3), seed=11)
        assert isinstance(omega, np.ndarray) and omega.shape == (100, 3)
        assert np.array_equal(omega, np.random.default_rng(11).standard_normal((100, 3)))
        assert backend.counter.by_operation() == {"batched_rand": 1}

    def test_counter_incremented(self, backend_name):
        backend = get_backend(backend_name)
        a = random_batch([(3, 3)] * 4, seed=13)
        backend.batched_random_normal((3, 3), seed=13)
        backend.batched_min_r_diag(a)
        assert backend.counter.total_calls() >= 2
        assert backend.counter.total() >= 2


class TestBackendEquivalence:
    """Serial and vectorized backends must produce identical numerical results."""

    @given(seed=st.integers(0, 200), count=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_gemm_equivalence(self, seed, count):
        rng = np.random.default_rng(seed)
        p, q, k, fan_in = (int(v) for v in rng.integers(1, 6, size=4))
        a = rng.standard_normal((count, p, fan_in * q))
        src = rng.standard_normal((count + 1, q, k))
        src_pos = rng.integers(0, count + 1, size=count * fan_in)
        dest_pos = rng.permutation(count)
        outputs = []
        for backend in (SerialBackend(), VectorizedBackend()):
            dest = np.zeros((count, p, k))
            backend.batched_gemm_scatter(dest, dest_pos, a, src, src_pos)
            outputs.append(dest)
        assert np.allclose(*outputs, atol=1e-12)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_min_r_diag_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((rng.integers(4, 12), 4)) for _ in range(5)]
        serial = SerialBackend().batched_min_r_diag(mats)
        vector = VectorizedBackend().batched_min_r_diag(mats)
        assert np.allclose(serial, vector, atol=1e-10)

    def test_vectorized_fewer_launches_for_uniform_shapes(self):
        mats = random_batch([(8, 8)] * 16, seed=1)
        serial = SerialBackend()
        vector = VectorizedBackend()
        serial.batched_min_r_diag(mats)
        vector.batched_min_r_diag(mats)
        # uniform shapes -> a single stacked launch on the vectorized backend
        assert vector.counter.by_operation()["batched_qr"] == 1
        assert serial.counter.by_operation()["batched_qr"] == 1

    def test_vectorized_groups_by_shape(self):
        mats = random_batch([(4, 4)] * 3 + [(6, 6)] * 2, seed=2)
        vector = VectorizedBackend()
        vector.batched_min_r_diag(mats)
        assert vector.counter.by_operation()["batched_qr"] == 2


class TestSharedMarshaling:
    """``pad_blocks`` / ``fan_operands`` against a naive per-slot, per-entry loop."""

    @staticmethod
    def naive_pad(blocks, rows, cols):
        out = np.zeros((len(blocks), rows, cols))
        for i, block in enumerate(blocks):
            if block is None:
                continue
            for r in range(block.shape[0]):
                for c in range(block.shape[1]):
                    out[i, r, c] = block[r, c]
        return out

    @classmethod
    def naive_operand(cls, group, blocks, p, q):
        out = np.zeros((group.num_rows, p, group.fan * q))
        for slot, req in enumerate(group.block_req):
            if req < 0:
                continue
            i, j = divmod(slot, group.fan)
            out[i, :, j * q : (j + 1) * q] = cls.naive_pad([blocks[req]], p, q)[0]
        return out

    @staticmethod
    def assert_bitwise(a, b):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()

    def test_ragged_empty_and_none_blocks(self):
        from repro.batched.block_rows import pad_blocks

        rng = np.random.default_rng(0)
        shapes = [(3, 5), (0, 4), None, (1, 1), (4, 2), (2, 0)]
        blocks = [None if s is None else rng.standard_normal(s) for s in shapes]
        stack = pad_blocks(blocks, 4, 5)
        self.assert_bitwise(stack, self.naive_pad(blocks, 4, 5))
        assert not stack[[1, 2, 5]].any()

    def test_transposed_and_strided_views(self):
        from repro.batched.block_rows import pad_blocks

        base = np.random.default_rng(1).standard_normal((7, 9))
        blocks = [
            base.T[::2],  # (5, 7) non-contiguous transpose
            base[1:6:2, ::3].T,  # (3, 3)
            np.asfortranarray(base[:4, :6]),
            base[::-1, 2:5],  # negative stride
        ]
        assert not any(b.flags.c_contiguous for b in blocks[:2])
        stack = pad_blocks(blocks, 7, 7)
        self.assert_bitwise(stack, self.naive_pad(blocks, 7, 7))
        assert stack.flags.c_contiguous

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fan_operands_match_the_per_slot_loop(self, seed):
        from repro.batched.block_rows import (
            FAN_PAD, build_row_groups, fan_operands, pad_blocks,
        )

        rng = np.random.default_rng(seed)
        p, q, sources = 5, 4, 9
        fans = [1, 2, 2, FAN_PAD, FAN_PAD + 2, 3 * FAN_PAD - 1, 0, 1]
        blocks, rows = [], []
        for dest, fan in enumerate(fans):
            row = []
            for _ in range(fan):
                shape = (int(rng.integers(0, p + 1)), int(rng.integers(1, q + 1)))
                block = rng.standard_normal(shape)
                # Every third block is handed over as a transposed view.
                if len(blocks) % 3 == 0:
                    block = np.ascontiguousarray(block.T).T
                row.append((int(rng.integers(0, sources)), len(blocks)))
                blocks.append(block)
            rows.append((dest, row))
        groups = build_row_groups(rows, sentinel=sources)
        assert any(group.fan > FAN_PAD for group in groups)
        for group in groups:
            stack = pad_blocks([blocks[i] for i in group.real_blocks], p, q)
            a = fan_operands(group, stack)
            self.assert_bitwise(a, self.naive_operand(group, blocks, p, q))
            assert (a is stack) == (group.fan == 1)  # fan 1: no copy
            padded = np.nonzero(group.block_req < 0)[0]
            for i, j in zip(*np.divmod(padded, group.fan)):
                assert not a[i, :, j * q : (j + 1) * q].any()
                assert group.src_pos[i * group.fan + j] == sources

    def test_zero_groups(self):
        from repro.batched.block_rows import build_row_groups, pad_blocks

        assert pad_blocks([], 3, 2).shape == (0, 3, 2)
        assert build_row_groups([], sentinel=0) == []
        assert build_row_groups([(0, []), (1, [])], sentinel=2) == []
