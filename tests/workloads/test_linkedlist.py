"""The Figure 5 / Figure 10 LinkedArray workload builder."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.workloads.linkedlist import (
    build_linked_list,
    count_objects,
    define_linked_array,
    list_payload_ints,
    verify_linked_list,
)


class TestPayloads:
    def test_even_distribution(self):
        payloads = list_payload_ints(4, total_bytes=4096)
        assert len(payloads) == 4
        assert sum(len(p) for p in payloads) == 1024  # ints
        assert all(len(p) == 256 for p in payloads)

    def test_uneven_distribution(self):
        payloads = list_payload_ints(3, total_bytes=40)
        assert sum(len(p) for p in payloads) == 10
        assert [len(p) for p in payloads] == [4, 3, 3]

    def test_deterministic(self):
        assert list_payload_ints(5, 400) == list_payload_ints(5, 400)

    def test_count_objects(self):
        """'The total number of objects transported is twice the number of
        linked list elements' (§8)."""
        assert count_objects(512) == 1024


class TestBuilder:
    def test_build_and_verify(self, runtime):
        head = build_linked_list(runtime, 7, 280)
        verify_linked_list(runtime, head, 7, 280)

    def test_figure5_shape(self, runtime):
        define_linked_array(runtime)
        mt = runtime.registry.resolve("LinkedArray")
        assert mt.transportable_class
        assert mt.fields_by_name["array"].is_transportable
        assert mt.fields_by_name["next"].is_transportable
        assert not mt.fields_by_name["next2"].is_transportable

    def test_next2_default_null(self, runtime):
        head = build_linked_list(runtime, 3, 96)
        assert runtime.get_field(head, "next2") is None

    def test_wire_next2(self, runtime):
        head = build_linked_list(runtime, 3, 96, wire_next2=True)
        assert runtime.get_field(head, "next2") is not None

    def test_single_element(self, runtime):
        head = build_linked_list(runtime, 1, 64)
        verify_linked_list(runtime, head, 1, 64)

    def test_zero_elements_rejected(self, runtime):
        with pytest.raises(ValueError):
            build_linked_list(runtime, 0, 64)

    def test_verify_catches_truncation(self, runtime):
        head = build_linked_list(runtime, 4, 128)
        # chop the list after the second node
        second = runtime.get_field(head, "next")
        runtime.set_ref(second, "next", None)
        with pytest.raises(AssertionError):
            verify_linked_list(runtime, head, 4, 128)

    def test_verify_catches_data_corruption(self, runtime):
        head = build_linked_list(runtime, 2, 64)
        arr = runtime.get_field(head, "array")
        runtime.set_elem(arr, 0, 12345)
        with pytest.raises(AssertionError):
            verify_linked_list(runtime, head, 2, 64)

    def test_verify_names_the_first_differing_element(self, runtime):
        head = build_linked_list(runtime, 3, 96)
        second = runtime.get_field(head, "next")
        arr = runtime.get_field(second, "array")
        expected = list_payload_ints(3, 96)[1]
        runtime.set_elem(arr, 5, -1)
        runtime.set_elem(arr, 7, -2)
        with pytest.raises(AssertionError, match=rf"^element 1\[5\] = -1, expected {expected[5]}$"):
            verify_linked_list(runtime, head, 3, 96)

    def test_verify_checks_the_last_element_of_the_last_array(self, runtime):
        head = build_linked_list(runtime, 2, 64)
        last = runtime.get_field(runtime.get_field(head, "next"), "array")
        n = runtime.array_length(last)
        runtime.set_elem(last, n - 1, runtime.get_elem(last, n - 1) + 1)
        with pytest.raises(AssertionError, match=rf"^element 1\[{n - 1}\] = "):
            verify_linked_list(runtime, head, 2, 64)

    @pytest.mark.parametrize(
        "elements,message",
        [(5, "list ended early at element 4"), (3, "list longer than expected")],
    )
    def test_verify_length_messages(self, runtime, elements, message):
        head = build_linked_list(runtime, 4, 128)
        with pytest.raises(AssertionError, match=message):
            verify_linked_list(runtime, head, elements, 128 * elements // 4)

    def test_verify_array_length_message(self, runtime):
        head = build_linked_list(runtime, 2, 64)
        runtime.set_ref(head, "array", runtime.new_array("int32", 3))
        with pytest.raises(AssertionError, match=r"^element 0: 3 ints, expected 8$"):
            verify_linked_list(runtime, head, 2, 64)

    def test_verify_next2_message(self, runtime):
        head = build_linked_list(runtime, 2, 64, wire_next2=True)
        with pytest.raises(AssertionError, match="element 0: next2 should not have been"):
            verify_linked_list(runtime, head, 2, 64)


_OPTIMIZED_CHECKS = """
import sys
from repro.runtime.runtime import ManagedRuntime
from repro.workloads.linkedlist import build_linked_list, verify_linked_list
from repro.workloads.pingpong import _check_payload, _pattern

assert False, "assert statements must be stripped in this interpreter"
rt = ManagedRuntime()
head = build_linked_list(rt, 4, 128)
arr = rt.get_field(rt.get_field(head, "next"), "array")
rt.set_elem(arr, 2, 999)
caught = []
try:
    verify_linked_list(rt, head, 4, 128)
except AssertionError as exc:
    caught.append(str(exc))
bad = bytearray(_pattern(300))
bad[299] ^= 1
try:
    _check_payload(bytes(bad), 300, "cpp:")
except AssertionError as exc:
    caught.append(str(exc))
print([sys.flags.optimize, caught])
"""


def test_checks_hold_under_python_O():
    """``python -O`` strips ``assert``; the list and payload checks still raise."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    data = list_payload_ints(4, 128)[1]
    assert out.strip() == str(
        [1, [f"element 1[2] = 999, expected {data[2]}", "cpp: payload corrupted at size 300"]]
    )
