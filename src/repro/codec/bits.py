"""Bit-level I/O for the quadtree wire format.

The pointerless quadtree (§V-C, Fig. 9) is a *bitstring*: index-node markers,
presence masks, relative point encodings and list terminators are all
sub-byte fields.  :class:`BitWriter` and :class:`BitReader` provide MSB-first
append/consume over a growable buffer, plus the byte-level view used for
packet accounting (a transmission carries whole bytes).

Both grow or shift one big int, which is quadratic in the stream length.
That is enough: no protocol path writes or reads a stream, since messages
are priced by :meth:`repro.codec.quadtree.QuadtreeCodec.encoded_size_bits`.
"""

from __future__ import annotations

from ..errors import CodecError

__all__ = ["BitWriter", "BitReader", "Bits"]


class Bits:
    """An immutable bit string (MSB-first).

    Stored as (value, length): the integer's binary expansion padded to
    ``length`` bits.  Cheap to hash and compare, which the codec tests use
    heavily.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, value: int = 0, length: int = 0):
        if length < 0:
            raise CodecError(f"negative bit length: {length}")
        if value < 0:
            raise CodecError(f"negative bit value: {value}")
        if value >> length:
            raise CodecError(f"value {value:#x} does not fit in {length} bits")
        self._value = value
        self._length = length

    @property
    def value(self) -> int:
        """The bits as an unsigned integer (MSB = first bit)."""
        return self._value

    def __len__(self) -> int:
        return self._length

    @property
    def byte_length(self) -> int:
        """Bytes needed on the wire (ceil of bits / 8); 0 bits -> 0 bytes."""
        return (self._length + 7) // 8

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bits)
            and self._value == other._value
            and self._length == other._length
        )

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        if self._length == 0:
            return "Bits('')"
        return f"Bits('{self._value:0{self._length}b}')"

    @staticmethod
    def from_string(text: str) -> "Bits":
        """Build from a '0101...' string (test convenience)."""
        if text and set(text) - {"0", "1"}:
            raise CodecError(f"not a bit string: {text!r}")
        return Bits(int(text, 2) if text else 0, len(text))

    def to_bytes(self) -> bytes:
        """Left-aligned byte representation (pad bits are zero)."""
        if self._length == 0:
            return b""
        padded = self._value << (self.byte_length * 8 - self._length)
        return padded.to_bytes(self.byte_length, "big")


class BitWriter:
    """Append-only MSB-first bit sink."""

    def __init__(self) -> None:
        self._value = 0
        self._length = 0

    def write_bit(self, bit: int) -> None:
        """Append one bit (0 or 1)."""
        if bit not in (0, 1):
            raise CodecError(f"bit must be 0 or 1, got {bit!r}")
        self._value = (self._value << 1) | bit
        self._length += 1

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` as a ``width``-bit big-endian unsigned field."""
        if width < 0:
            raise CodecError(f"negative field width: {width}")
        if value < 0 or value >> width:
            raise CodecError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._length += width

    def write_bits(self, bits: Bits) -> None:
        """Append another bit string."""
        self._value = (self._value << len(bits)) | bits.value
        self._length += len(bits)

    def __len__(self) -> int:
        return self._length

    def getvalue(self) -> Bits:
        """Snapshot the accumulated bits (further appends still allowed)."""
        return Bits(self._value, self._length)


class BitReader:
    """MSB-first bit source over a :class:`Bits`."""

    def __init__(self, bits: Bits):
        self._value = bits.value
        self._length = len(bits)
        self._position = 0

    @property
    def position(self) -> int:
        """Bits consumed so far."""
        return self._position

    @property
    def remaining(self) -> int:
        """Bits left to read."""
        return self._length - self._position

    def read_bit(self) -> int:
        """Consume one bit."""
        return self.read_uint(1)

    def read_uint(self, width: int) -> int:
        """Consume a ``width``-bit big-endian unsigned field."""
        if width < 0:
            raise CodecError(f"negative field width: {width}")
        position = self._position
        if position + width > self._length:
            raise CodecError(
                f"bitstream underrun: wanted {width} bits at position "
                f"{position}, only {self._length - position} remain"
            )
        shift = self._length - position - width
        self._position = position + width
        return (self._value >> shift) & ((1 << width) - 1)

    def at_end(self) -> bool:
        """True once every bit has been consumed."""
        return self._position == self._length
