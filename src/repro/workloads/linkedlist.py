"""The LinkedArray workload of Figure 5 / Figure 10.

A linked list where each element references an int array; the paper's
Figure 10 distributes a 4096-byte payload evenly over the list, so a list
of k elements transports 2k objects (each element plus its array).

The class is defined exactly as in Figure 5::

    [Transportable] class LinkedArray {
        [Transportable] public int[] array;
        [Transportable] public LinkedArray next;
        public LinkedArray next2;
    }

``next2`` is *not* transportable: Motor's serializer nulls it, while the
opt-out standard serializers would chase it — which is why the builder
leaves it null by default (set ``wire_next2=True`` to exercise the
semantic difference in tests).
"""

from __future__ import annotations

from repro.runtime.handles import ObjRef
from repro.runtime.runtime import ManagedRuntime

CLASS_NAME = "LinkedArray"


def define_linked_array(runtime: ManagedRuntime) -> None:
    """Register the Figure 5 class (idempotent per runtime)."""
    if CLASS_NAME in runtime.registry:
        return
    runtime.define_class(
        CLASS_NAME,
        [
            ("array", "int32[]", True),
            ("next", CLASS_NAME, True),
            ("next2", CLASS_NAME, False),
        ],
        transportable_class=True,
    )


def list_payload_ints(elements: int, total_bytes: int = 4096) -> list[list[int]]:
    """Deterministic per-element int payloads, evenly splitting the total."""
    total_ints = total_bytes // 4
    base = total_ints // elements
    extra = total_ints % elements
    payloads = []
    v = 0
    for k in range(elements):
        n = base + (1 if k < extra else 0)
        payloads.append([(v + i) * 2654435761 % (1 << 31) for i in range(n)])
        v += n
    return payloads


def build_linked_list(
    runtime: ManagedRuntime,
    elements: int,
    total_bytes: int = 4096,
    wire_next2: bool = False,
) -> ObjRef:
    """Build a k-element LinkedArray list carrying ``total_bytes`` of ints."""
    if elements < 1:
        raise ValueError("need at least one element")
    define_linked_array(runtime)
    payloads = list_payload_ints(elements, total_bytes)
    head = None
    prev = None
    nodes = []
    for data in payloads:
        node = runtime.new(CLASS_NAME)
        arr = runtime.new_array("int32", len(data), values=data)
        runtime.set_ref(node, "array", arr)
        if prev is not None:
            runtime.set_ref(prev, "next", node)
        else:
            head = node
        nodes.append(node)
        prev = node
    if wire_next2:
        for i in range(len(nodes) - 1):
            runtime.set_ref(nodes[i], "next2", nodes[i + 1])
    return head


def verify_linked_list(
    runtime: ManagedRuntime,
    head: ObjRef | None,
    elements: int,
    total_bytes: int = 4096,
    expect_next2_null: bool = True,
) -> None:
    """Check a received list matches what the builder produced.

    Every element of every array is compared.  A mismatch raises
    ``AssertionError`` explicitly, so the check holds under ``python -O``.
    """
    payloads = list_payload_ints(elements, total_bytes)
    node = head
    for k, data in enumerate(payloads):
        if node is None or node.is_null:
            raise AssertionError(f"list ended early at element {k}")
        arr = runtime.get_field(node, "array")
        if arr is None:
            raise AssertionError(f"element {k} lost its array")
        got = runtime.array_values(arr)
        if len(got) != len(data):
            raise AssertionError(f"element {k}: {len(got)} ints, expected {len(data)}")
        if got != data:
            i = next(i for i, (g, e) in enumerate(zip(got, data)) if g != e)
            raise AssertionError(f"element {k}[{i}] = {got[i]}, expected {data[i]}")
        if expect_next2_null and runtime.get_field(node, "next2") is not None:
            raise AssertionError(f"element {k}: next2 should not have been transported")
        node = runtime.get_field(node, "next")
    if node is not None:
        raise AssertionError("list longer than expected")


def count_objects(elements: int) -> int:
    """Total objects transported for a k-element list (the Fig 10 x-axis)."""
    return 2 * elements
