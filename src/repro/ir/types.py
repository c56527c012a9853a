"""The IR type system.

A deliberately small, LLVM-flavoured set of first-class types:

* ``void``
* integer types ``i1, i8, i16, i32, i64``
* ``f64`` (binary64 floating point)
* pointers (``T*``)
* fixed-size arrays (``[N x T]``) — only as pointee/global types
* function types

Types are interned: constructing the same type twice returns the same
object, so identity comparison (``is``) equals structural equality.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import IRTypeError

__all__ = [
    "Type",
    "VoidType",
    "IntType",
    "FloatType",
    "PointerType",
    "ArrayType",
    "FunctionType",
    "VOID",
    "I1",
    "I8",
    "I16",
    "I32",
    "I64",
    "F64",
    "ptr",
    "array",
]

POINTER_BITS = 64


class Type:
    """Base class of all IR types."""

    #: storage size in bytes; 0 for void/function types
    size: int = 0

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"<{self.__class__.__name__} {self}>"

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_scalar(self) -> bool:
        return self.is_integer or self.is_float or self.is_pointer

    @property
    def bits(self) -> int:
        """Value width in bits for scalar types."""
        raise IRTypeError(f"type {self} has no bit width")


class VoidType(Type):
    size = 0

    def __str__(self) -> str:
        return "void"


class IntType(Type):
    def __init__(self, width: int):
        if width not in (1, 8, 16, 32, 64):
            raise IRTypeError(f"unsupported integer width {width}")
        self.width = width
        self.size = max(1, width // 8)

    @property
    def bits(self) -> int:
        return self.width

    def __str__(self) -> str:
        return f"i{self.width}"


class FloatType(Type):
    size = 8

    @property
    def bits(self) -> int:
        return 64

    def __str__(self) -> str:
        return "f64"


class PointerType(Type):
    size = POINTER_BITS // 8

    def __init__(self, pointee: Type):
        if pointee.is_void:
            raise IRTypeError("pointer to void is not supported; use i8*")
        self.pointee = pointee

    @property
    def bits(self) -> int:
        return POINTER_BITS

    def __str__(self) -> str:
        return f"{self.pointee}*"


class ArrayType(Type):
    def __init__(self, element: Type, count: int):
        if count <= 0:
            raise IRTypeError(f"array count must be positive, got {count}")
        if not element.is_scalar and not element.is_array:
            raise IRTypeError(f"invalid array element type {element}")
        self.element = element
        self.count = count
        self.size = element.size * count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    @property
    def flattened_element(self) -> Type:
        """Innermost scalar element type of a (possibly nested) array."""
        ty: Type = self.element
        while isinstance(ty, ArrayType):
            ty = ty.element
        return ty


class FunctionType(Type):
    size = 0

    def __init__(self, ret: Type, params: Sequence[Type], variadic: bool = False):
        self.ret = ret
        self.params: Tuple[Type, ...] = tuple(params)
        self.variadic = variadic

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.variadic:
            params = params + ", ..." if params else "..."
        return f"{self.ret} ({params})"


# -- interning ----------------------------------------------------------

VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F64 = FloatType()

_INT_CACHE = {1: I1, 8: I8, 16: I16, 32: I32, 64: I64}
_PTR_CACHE: dict = {}
_ARRAY_CACHE: dict = {}
_FN_CACHE: dict = {}


def int_type(width: int) -> IntType:
    """Interned integer type of the given width."""
    try:
        return _INT_CACHE[width]
    except KeyError:
        raise IRTypeError(f"unsupported integer width {width}") from None


def ptr(pointee: Type) -> PointerType:
    """Interned pointer-to-``pointee`` type."""
    cached = _PTR_CACHE.get(id(pointee))
    if cached is None:
        cached = PointerType(pointee)
        _PTR_CACHE[id(pointee)] = cached
    return cached


def array(element: Type, count: int) -> ArrayType:
    """Interned ``[count x element]`` type."""
    key = (id(element), count)
    cached = _ARRAY_CACHE.get(key)
    if cached is None:
        cached = ArrayType(element, count)
        _ARRAY_CACHE[key] = cached
    return cached


def function_type(
    ret: Type, params: Sequence[Type], variadic: bool = False
) -> FunctionType:
    """Interned function type."""
    key = (id(ret), tuple(id(p) for p in params), variadic)
    cached = _FN_CACHE.get(key)
    if cached is None:
        cached = FunctionType(ret, params, variadic)
        _FN_CACHE[key] = cached
    return cached
