"""Object layout and raw accessors over the managed heap.

Every object starts with a 16-byte header::

    +0  mt_id   u32   MethodTable id (the paper's MethodTable reference)
    +4  flags   u32   GC bookkeeping (forwarding bit)
    +8  size    u32   total object size including header
    +12 aux     u32   array length (arrays) / spare

Instance data (or array elements) begins at offset 16.  References are
8-byte absolute addresses; 0 is null.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.runtime.errors import (
    InvalidCastError,
    NullReferenceError_,
    ObjectModelViolation,
)
from repro.runtime.heap import ManagedHeap
from repro.runtime.typesys import (
    ARRAY_DATA_OFFSET,
    OBJECT_HEADER_SIZE,
    REF_SIZE,
    FieldDesc,
    MethodTable,
    PrimitiveType,
    TypeRegistry,
    align8,
)

FLAG_FORWARDED = 1 << 0

HDR_MT = 0
HDR_FLAGS = 4
HDR_SIZE = 8
HDR_AUX = 12

#: mt_id and aux in one read (the flags and size words skipped)
_MT_AUX = struct.Struct("<I8xI")


@lru_cache(maxsize=512)
def _bulk_codec(fmt: str, count: int) -> struct.Struct:
    """The compiled ``<{count}{code}`` codec for ``count`` elements of format ``fmt``."""
    return struct.Struct(f"<{count}{fmt[1:]}")


class ObjectModel:
    """Typed object access over raw heap bytes."""

    def __init__(self, heap: ManagedHeap, registry: TypeRegistry) -> None:
        self.heap = heap
        self.registry = registry

    # -- headers ---------------------------------------------------------------

    def write_header(self, addr: int, mt: MethodTable, size: int, aux: int = 0) -> None:
        h = self.heap
        h.write_u32(addr + HDR_MT, mt.mt_id)
        h.write_u32(addr + HDR_FLAGS, 0)
        h.write_u32(addr + HDR_SIZE, size)
        h.write_u32(addr + HDR_AUX, aux)

    def method_table(self, addr: int) -> MethodTable:
        if addr == 0:
            raise NullReferenceError_("method table of null reference")
        return self.registry.by_id(self.heap.read_u32(addr + HDR_MT))

    def object_size(self, addr: int) -> int:
        return self.heap.read_u32(addr + HDR_SIZE)

    def is_forwarded(self, addr: int) -> bool:
        return bool(self.heap.read_u32(addr + HDR_FLAGS) & FLAG_FORWARDED)

    def set_forwarding(self, addr: int, new_addr: int) -> None:
        """Mark a moved object; the new address overwrites the size word."""
        self.heap.write_u32(addr + HDR_FLAGS, FLAG_FORWARDED)
        self.heap.write_u64(addr + HDR_SIZE, new_addr)

    def forwarding_target(self, addr: int) -> int:
        return self.heap.read_u64(addr + HDR_SIZE)

    # -- sizing ---------------------------------------------------------------

    def sizeof_instance(self, mt: MethodTable, length: int = 0) -> int:
        if mt.is_array:
            return align8(ARRAY_DATA_OFFSET + length * mt.element_size)
        return mt.instance_size

    # -- fields ---------------------------------------------------------------

    def _field(self, mt: MethodTable, name_or_fd) -> FieldDesc:
        if isinstance(name_or_fd, FieldDesc):
            return name_or_fd
        fd = mt.fields_by_name.get(name_or_fd)
        if fd is None:
            raise ObjectModelViolation(f"{mt.name} has no field {name_or_fd!r}")
        return fd

    def get_field(self, addr: int, name_or_fd):
        if addr == 0:
            raise NullReferenceError_("field read on null reference")
        fd = self._field(self.method_table(addr), name_or_fd)
        if fd.is_ref:
            return self.heap.read_u64(addr + fd.offset)
        return fd.ftype.unpack_from(self.heap.mem, addr + fd.offset)

    def set_field(self, addr: int, name_or_fd, value) -> None:
        if addr == 0:
            raise NullReferenceError_("field write on null reference")
        fd = self._field(self.method_table(addr), name_or_fd)
        if fd.is_ref:
            raise ObjectModelViolation(
                f"reference field {fd.name} must be written through the "
                "runtime's write barrier (ManagedRuntime.set_ref)"
            )
        fd.ftype.pack_into(self.heap.mem, addr + fd.offset, value)

    def set_ref_raw(self, addr: int, name_or_fd, target: int) -> None:
        """Store a reference *without* the write barrier (GC internal)."""
        fd = self._field(self.method_table(addr), name_or_fd)
        if not fd.is_ref:
            raise ObjectModelViolation(f"{fd.name} is not a reference field")
        self.heap.write_u64(addr + fd.offset, target)

    # -- arrays ---------------------------------------------------------------

    def array_header(self, addr: int) -> tuple[MethodTable, int]:
        """(method table, length) from one header read.

        The length word is the header's aux slot, which is 0 for a plain
        object, so an element index into a non-array is always out of range.
        """
        if addr == 0:
            raise NullReferenceError_("method table of null reference")
        mt_id, length = _MT_AUX.unpack_from(self.heap.mem, addr)
        return self.registry.by_id(mt_id), length

    def slot_addr(self, addr: int, mt: MethodTable, length: int, index: int) -> int:
        """Bounds-checked address of element ``index`` (header already read)."""
        if not 0 <= index < length:
            raise ObjectModelViolation(
                f"index {index} out of range for {mt.name}[{length}]"
            )
        return addr + ARRAY_DATA_OFFSET + index * mt.element_size

    def array_length(self, addr: int) -> int:
        mt, length = self.array_header(addr)
        if not mt.is_array:
            raise InvalidCastError(f"{mt.name} is not an array")
        return length

    def set_elem(self, addr: int, index: int, value) -> None:
        mt, length = self.array_header(addr)
        ea = self.slot_addr(addr, mt, length, index)
        if mt.element_is_ref:
            raise ObjectModelViolation(
                "reference array elements must go through the write barrier"
            )
        mt.element_type.pack_into(self.heap.mem, ea, value)

    @staticmethod
    def _slice_count(length: int, offset: int, count: int | None) -> int:
        """``count`` (defaulting to the rest of the array), refused past the end."""
        if count is None:
            count = length - offset
        if offset < 0 or count < 0 or offset + count > length:
            raise ObjectModelViolation(
                f"array slice [{offset}:{offset + count}] exceeds "
                f"length {length} — refused to protect the object model"
            )
        return count

    def array_data_range(self, addr: int, offset_elems: int = 0, count: int | None = None) -> tuple[int, int]:
        """(data_addr, nbytes) for a primitive-array slice — the zero-copy
        window the transport reads from / writes into."""
        mt, length = self.array_header(addr)
        if not mt.is_array:
            # A plain object's 'data range' is its instance data.
            if offset_elems or count is not None:
                raise ObjectModelViolation(
                    "offset/count transport is only supported for arrays "
                    "(there is no safe way to refer to a subset of an object)"
                )
            return addr + OBJECT_HEADER_SIZE, mt.instance_size - OBJECT_HEADER_SIZE
        count = self._slice_count(length, offset_elems, count)
        es = mt.element_size
        return addr + ARRAY_DATA_OFFSET + offset_elems * es, count * es

    # -- bulk primitive-array access ---------------------------------------------

    def _primitive_slice(
        self, addr: int, offset: int, count: int | None
    ) -> tuple[PrimitiveType, int, int]:
        """(element type, data address, count) of a checked primitive slice."""
        mt, length = self.array_header(addr)
        if not mt.is_array:
            raise InvalidCastError(f"{mt.name} is not an array")
        if mt.element_is_ref:
            raise ObjectModelViolation(
                f"bulk access needs a primitive array; {mt.name} holds references, "
                "which must go through the write barrier"
            )
        count = self._slice_count(length, offset, count)
        prim = mt.element_type
        return prim, addr + ARRAY_DATA_OFFSET + offset * prim.size, count

    def get_elems(self, addr: int, offset: int = 0, count: int | None = None) -> list:
        """Elements ``[offset, offset+count)`` of a primitive array, one unpack."""
        prim, data_addr, count = self._primitive_slice(addr, offset, count)
        return list(_bulk_codec(prim.fmt, count).unpack_from(self.heap.mem, data_addr))

    def set_elems(self, addr: int, values, offset: int = 0) -> None:
        """Write ``values`` from element ``offset`` on, with one pack.

        A slice past the end raises :class:`ObjectModelViolation` and a value
        the element codec refuses raises ``struct.error``, both before any
        byte of the array changes.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        prim, data_addr, count = self._primitive_slice(addr, offset, len(values))
        packed = _bulk_codec(prim.fmt, count).pack(*values)
        self.heap.mem[data_addr : data_addr + len(packed)] = packed

    # -- graph walking (used by the GC and the serializer) ----------------------

    def ref_slots(self, addr: int) -> list[int]:
        """Absolute addresses of every reference slot inside the object."""
        mt, length = self.array_header(addr)
        if mt.is_array:
            if not mt.element_is_ref:
                return []
            base = addr + ARRAY_DATA_OFFSET
            return [base + i * REF_SIZE for i in range(length)]
        return [addr + fd.offset for fd in mt.fields if fd.is_ref]
