"""Bulk primitive-array access against the per-element paths it replaces.

``ManagedRuntime.array_values`` and ``ObjectModel.get_elems``/``set_elems``
read and write a whole primitive slice with one header read and one
``struct`` call.  Every test here checks them against what element-by-element
``get_elem``/``set_elem`` produce, including the errors.
"""

import struct

import pytest

from repro.runtime.errors import (
    InvalidCastError,
    NullReferenceError_,
    ObjectModelViolation,
)
from repro.runtime.typesys import PRIMITIVES
from repro.workloads.linkedlist import build_linked_list

#: per primitive: values that exercise its codec (rounding, truthiness, range ends)
SAMPLES = {
    "bool": [True, False, 1, 0, 7, True],
    "byte": [0, 1, 127, 128, 255],
    "sbyte": [-128, -1, 0, 1, 127],
    "char": [0, 65, 0x263A, 0xD7FF, 0xFFFF],
    "int16": [-(1 << 15), -1, 0, 1, (1 << 15) - 1],
    "uint16": [0, 1, 0x8000, 0xFFFF],
    "int32": [-(1 << 31), -1, 0, 12345, (1 << 31) - 1],
    "uint32": [0, 1, 1 << 31, (1 << 32) - 1],
    "int64": [-(1 << 63), -1, 0, (1 << 63) - 1],
    "uint64": [0, 1, 1 << 63, (1 << 64) - 1],
    "float32": [0.1, -1.5, 3.4e38, 1e-45, 1 / 3],
    "float64": [0.1, -1.5, 1e308, 5e-324, 1 / 3],
}


def per_element_array(rt, tname, values, length=None):
    """The reference: an array filled and read one element at a time."""
    length = len(values) if length is None else length
    arr = rt.new_array(tname, length)
    for i, v in enumerate(values):
        rt.set_elem(arr, i, v)
    return arr


def test_samples_cover_every_primitive():
    assert set(SAMPLES) == set(PRIMITIVES)
    assert len(PRIMITIVES) == 12


@pytest.mark.parametrize("tname", sorted(PRIMITIVES))
class TestDifferential:
    def test_array_values_equals_get_elem(self, runtime, tname):
        arr = per_element_array(runtime, tname, SAMPLES[tname])
        expected = [runtime.get_elem(arr, i) for i in range(runtime.array_length(arr))]
        got = runtime.array_values(arr)
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]

    def test_new_array_values_equals_per_element_writes(self, runtime, tname):
        values = SAMPLES[tname]
        bulk = runtime.new_array(tname, len(values) + 2, values=values)
        ref = per_element_array(runtime, tname, values, length=len(values) + 2)
        assert runtime.array_bytes(bulk) == runtime.array_bytes(ref)

    def test_generator_values(self, runtime, tname):
        values = SAMPLES[tname]
        bulk = runtime.new_array(tname, len(values), values=(v for v in values))
        assert runtime.array_values(bulk) == runtime.array_values(
            per_element_array(runtime, tname, values)
        )

    def test_slices(self, runtime, tname):
        arr = per_element_array(runtime, tname, SAMPLES[tname])
        n = runtime.array_length(arr)
        full = [runtime.get_elem(arr, i) for i in range(n)]
        for offset in range(n + 1):
            assert runtime.array_values(arr, offset) == full[offset:]
            for count in range(n - offset + 1):
                assert runtime.array_values(arr, offset, count) == full[offset : offset + count]


def test_float32_rounds_like_the_element_codec(runtime):
    arr = runtime.new_array("float32", 1, values=[0.1])
    (rounded,) = struct.unpack("<f", struct.pack("<f", 0.1))
    assert runtime.array_values(arr) == [rounded] == [runtime.get_elem(arr, 0)]
    assert rounded != 0.1


def test_string_chars(runtime):
    s = "Motor ☺"
    ref = runtime.new_string(s)
    assert runtime.array_values(ref) == [ord(ch) for ch in s]
    assert "".join(map(chr, runtime.array_values(ref))) == s


class TestErrors:
    def test_too_many_values_refused(self, runtime):
        with pytest.raises(ObjectModelViolation):
            runtime.new_array("int32", 3, values=[1, 2, 3, 4])

    def test_too_many_values_refused_before_any_write(self, runtime):
        arr = runtime.new_array("int32", 3, values=[7, 8, 9])
        with pytest.raises(ObjectModelViolation):
            runtime.om.set_elems(arr.addr, [1, 2, 3, 4])
        with pytest.raises(ObjectModelViolation):
            runtime.om.set_elems(arr.addr, [1, 2], offset=2)
        assert runtime.array_values(arr) == [7, 8, 9]

    @pytest.mark.parametrize(
        "tname,bad",
        [("byte", 256), ("sbyte", -129), ("int32", 1 << 31), ("uint64", -1),
         ("char", 0x10000), ("int32", "x"), ("int64", 1.5), ("float64", "x")],
    )
    def test_codec_refusal_matches_per_element(self, runtime, tname, bad):
        with pytest.raises(struct.error):
            per_element_array(runtime, tname, [bad])
        with pytest.raises(struct.error):
            runtime.new_array(tname, 2, values=[0, bad])

    def test_codec_refusal_leaves_array_unchanged(self, runtime):
        arr = runtime.new_array("byte", 3, values=[1, 2, 3])
        with pytest.raises(struct.error):
            runtime.om.set_elems(arr.addr, [9, 9, 256])
        assert runtime.array_values(arr) == [1, 2, 3]

    def test_reference_array_refused(self, runtime):
        arr = runtime.new_array("object", 2)
        with pytest.raises(ObjectModelViolation):
            runtime.array_values(arr)
        with pytest.raises(ObjectModelViolation):
            runtime.om.set_elems(arr.addr, [0, 0])

    def test_non_array_refused(self, runtime):
        runtime.define_class("P", [("x", "int32")])
        with pytest.raises(InvalidCastError):
            runtime.array_values(runtime.new("P"))

    def test_null_refused(self, runtime):
        with pytest.raises(NullReferenceError_):
            runtime.array_values(runtime.null_ref())
        with pytest.raises(NullReferenceError_):
            runtime.om.get_elems(0)

    @pytest.mark.parametrize("offset,count", [(-1, None), (0, 6), (4, 2), (6, 0), (2, -1)])
    def test_slice_bounds(self, runtime, offset, count):
        arr = runtime.new_array("int32", 5)
        with pytest.raises(ObjectModelViolation, match="exceeds length 5"):
            runtime.array_values(arr, offset, count)


def test_fewer_values_leave_zero_tail(runtime):
    arr = runtime.new_array("int64", 6, values=[5, 6])
    assert runtime.array_values(arr) == [5, 6, 0, 0, 0, 0]


def test_set_elems_at_offset(runtime):
    arr = runtime.new_array("int16", 6)
    runtime.om.set_elems(arr.addr, [-1, -2], offset=3)
    assert runtime.array_values(arr) == [0, 0, 0, -1, -2, 0]


def test_reads_after_collection_moves_the_array(tiny_runtime):
    rt = tiny_runtime
    values = list(range(-50, 50))
    arr = rt.new_array("int32", len(values), values=values)
    before = arr.addr
    rt.collect(0)
    assert arr.addr != before  # promoted out of the nursery
    assert rt.array_values(arr) == values
    assert rt.array_values(arr) == [rt.get_elem(arr, i) for i in range(len(values))]


class TestSingleElementErrors:
    """The one-header-read element path keeps every error of the old one."""

    def test_null(self, runtime):
        null = runtime.null_ref()
        for call in (lambda: runtime.get_elem(null, 0),
                     lambda: runtime.set_elem(null, 0, 1),
                     lambda: runtime.set_elem_ref(null, 0, None)):
            with pytest.raises(NullReferenceError_):
                call()
        with pytest.raises(NullReferenceError_, match="method table of null reference"):
            runtime.om.set_elem(0, 0, 1)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_index_out_of_range(self, runtime, index):
        arr = runtime.new_array("int32", 5)
        msg = rf"index {index} out of range for int32\[\]\[5\]"
        with pytest.raises(ObjectModelViolation, match=msg):
            runtime.get_elem(arr, index)
        with pytest.raises(ObjectModelViolation, match=msg):
            runtime.set_elem(arr, index, 1)
        refs = runtime.new_array("object", 5)
        with pytest.raises(ObjectModelViolation, match=rf"index {index} out of range"):
            runtime.set_elem_ref(refs, index, None)

    def test_non_array(self, runtime):
        runtime.define_class("P", [("x", "int32")])
        obj = runtime.new("P")
        with pytest.raises(ObjectModelViolation, match=r"index 0 out of range for P\[0\]"):
            runtime.get_elem(obj, 0)
        with pytest.raises(ObjectModelViolation, match=r"index 0 out of range for P\[0\]"):
            runtime.set_elem(obj, 0, 1)
        with pytest.raises(ObjectModelViolation, match="P is not a reference array"):
            runtime.set_elem_ref(obj, 0, None)

    def test_reference_array_without_barrier(self, runtime):
        refs = runtime.new_array("object", 2)
        with pytest.raises(ObjectModelViolation, match="must go through the write barrier"):
            runtime.set_elem(refs, 0, 1)

    def test_primitive_array_through_ref_path(self, runtime):
        """The element-type check comes before the index check."""
        arr = runtime.new_array("int32", 2)
        with pytest.raises(ObjectModelViolation, match=r"int32\[\] is not a reference array"):
            runtime.set_elem_ref(arr, 99, None)

    def test_ref_store_records_the_write(self, runtime):
        refs = runtime.new_array("object", 3)
        runtime.collect(0)  # the array is now elder
        runtime.define_class("Q", [("x", "int32")])
        young = runtime.new("Q", x=4)
        runtime.set_elem_ref(refs, 2, young)
        runtime.collect(0)
        assert runtime.get_field(runtime.get_elem(refs, 2), "x") == 4


@pytest.mark.parametrize(
    "elements,charges,virtual_ns,gen0",
    [(1, 2, 240.0, 0), (7, 14, 1680.0, 0), (512, 1024, 122880.0, 0), (2048, 6144, 524288.0, 1)],
)
def test_build_linked_list_virtual_cost_pinned(vruntime, elements, charges, virtual_ns, gen0):
    """Bulk element writes charge no virtual time: the builder's charges and
    virtual ns are those of the per-element builder it replaced."""
    build_linked_list(vruntime, elements)
    assert vruntime.clock.charges == charges
    assert vruntime.clock.now() == virtual_ns
    assert vruntime.gc.stats.gen0_collections == gen0
