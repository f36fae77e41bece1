"""AES-128 from OpenSSL, for the garbled circuits' hashes and PRFs.

The cipher is OpenSSL's EVP AES-128, reached through ``ctypes`` in the
libcrypto that CPython's own ``hashlib`` already links, so it adds no
dependency and loads no second copy of the library.  :class:`Aes128Ecb`
encrypts under one fixed key; :class:`Aes128` is one ECB or CTR context
that its caller re-keys between calls and that reads and writes caller
buffers by address.  Importing this module checks the FIPS-197 appendix C.1
known answer (ECB) and NIST SP 800-38A F.5.1 (CTR-AES128), and fails if
either does not hold.
"""

from __future__ import annotations

import ctypes
import threading

import _hashlib

BLOCK_BYTES = 16

_lib = ctypes.CDLL(_hashlib.__file__)
for _mode in (_lib.EVP_aes_128_ecb, _lib.EVP_aes_128_ctr):
    _mode.argtypes = []
    _mode.restype = ctypes.c_void_p
_lib.EVP_CIPHER_CTX_new.argtypes = []
_lib.EVP_CIPHER_CTX_new.restype = ctypes.c_void_p
_lib.EVP_CIPHER_CTX_free.argtypes = [ctypes.c_void_p]
_lib.EVP_CIPHER_CTX_free.restype = None
_lib.EVP_CIPHER_CTX_set_padding.argtypes = [ctypes.c_void_p, ctypes.c_int]
_lib.EVP_CIPHER_CTX_set_padding.restype = ctypes.c_int
# The two calls each encryption makes take no argtypes, which halves their
# cost, about 1 ms of a label-keyed session at rule width 104: only
# :class:`Aes128` calls them, and it passes ctypes pointers, bytes, None
# and small ints, never a bare address.
_init = _lib["EVP_EncryptInit_ex"]
_update = _lib["EVP_EncryptUpdate"]

_MODES = {"ecb": _lib.EVP_aes_128_ecb, "ctr": _lib.EVP_aes_128_ctr}
_ZERO_BLOCK = bytes(BLOCK_BYTES)


def pinned(buf: bytearray) -> tuple[ctypes.c_char, int]:
    """The address of ``buf``, and the ctypes view that pins it there:
    while the view lives, ``buf`` cannot be resized or freed.

    The view is the one ``c_char`` at the start of ``buf``.  An array
    view would need an array type of ``buf``'s length, which ctypes caches
    only weakly, so it made one anew, about 20 us, after every garbage
    collection that freed it.
    """
    view = ctypes.c_char.from_buffer(buf)
    return view, ctypes.addressof(view)


class Aes128:
    """One OpenSSL AES-128 context in ECB or CTR mode, keyed per call.

    :meth:`encrypt` keys the context and encrypts whole blocks from one
    address to another, which may be the same; under CTR it counts from
    the block ``iv``, zero unless given.  Keys and blocks are read and
    written by address (see :func:`pinned`), so a caller passes slices of
    one buffer without a ctypes object per call.  A context holds the
    pointers of its call, so like :class:`Aes128Ecb`'s it is never shared
    between threads without a lock.
    """

    def __init__(self, mode: str) -> None:
        ctx = _lib.EVP_CIPHER_CTX_new()
        if not ctx:
            raise MemoryError("EVP_CIPHER_CTX_new failed")
        self._ctx = ctypes.c_void_p(ctx)
        if (_init(self._ctx, ctypes.c_void_p(_MODES[mode]()), None, None,
                  None) != 1
                or _lib.EVP_CIPHER_CTX_set_padding(ctx, 0) != 1):
            raise RuntimeError(f"OpenSSL refused the AES-128-{mode} set-up")
        self._key = ctypes.c_void_p()
        self._out = ctypes.c_void_p()
        self._in = ctypes.c_void_p()
        self._written = ctypes.c_int(0)
        self._written_at = ctypes.byref(self._written)

    def encrypt(self, key: int, out: int, data: int, n: int,
                iv: bytes = _ZERO_BLOCK) -> None:
        """Under the 16-byte key at address ``key``, encrypt the ``n`` bytes
        at address ``data``, whole blocks, to address ``out``."""
        self._key.value, self._out.value, self._in.value = key, out, data
        if (_init(self._ctx, None, None, self._key, iv) != 1
                or _update(self._ctx, self._out, self._written_at, self._in,
                           n) != 1
                or self._written.value != n):
            raise RuntimeError("OpenSSL AES-128 encryption failed")

    def __del__(self) -> None:
        if getattr(self, "_ctx", None):
            _lib.EVP_CIPHER_CTX_free(self._ctx)
            self._ctx = None


class Aes128Ecb:
    """Encrypts whole 16-byte blocks under one key; one native call per batch."""

    def __init__(self, key: bytes) -> None:
        if len(key) != BLOCK_BYTES:
            raise ValueError("AES-128 takes a 16-byte key")
        self._aes = Aes128("ecb")
        self._key_pin, self._key = pinned(bytearray(key))
        # one context serves every caller; OpenSSL contexts are not reentrant
        self._lock = threading.Lock()

    def encrypt(self, data: bytes) -> bytearray:
        """ECB-encrypt ``data``, whose length must be a multiple of 16."""
        n = len(data)
        if n % BLOCK_BYTES:
            raise ValueError("ECB input must be whole 16-byte blocks")
        out = bytearray(data)
        if n:
            pin, at = pinned(out)
            with self._lock:
                self._aes.encrypt(self._key, at, at, n)
        return out


# FIPS-197, appendix C.1
_KAT_KEY = bytes(range(16))
_KAT_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
_KAT_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

if Aes128Ecb(_KAT_KEY).encrypt(_KAT_PLAIN) != _KAT_CIPHER:
    raise ImportError("AES-128-ECB from OpenSSL fails the FIPS-197 known answer")

# NIST SP 800-38A, F.5.1 CTR-AES128.Encrypt: four blocks from a counter
# whose low byte carries into the next
_CTR_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_CTR_IV = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
_CTR_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef" "f69f2445df4f9b17ad2b417be66c3710")
_CTR_CIPHER = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce" "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab" "1e031dda2fbe03d1792170a0f3009cee")


def _ctr_known_answer() -> bytes:
    key_pin, key = pinned(bytearray(_CTR_KEY))
    out = bytearray(_CTR_PLAIN)
    pin, at = pinned(out)
    Aes128("ctr").encrypt(key, at, at, len(out), _CTR_IV)
    return bytes(out)


if _ctr_known_answer() != _CTR_CIPHER:
    raise ImportError("AES-128-CTR from OpenSSL fails the SP 800-38A known "
                      "answer")
