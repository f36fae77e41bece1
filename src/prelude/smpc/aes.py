"""AES-128 in ECB mode, for the fixed-key hash the garbled circuits use.

The cipher is OpenSSL's EVP AES-128-ECB, reached through ``ctypes`` in the
libcrypto that CPython's own ``hashlib`` already links, so it adds no
dependency and loads no second copy of the library.  Importing this module
checks the FIPS-197 appendix C.1 known answer and fails if it does not hold.
"""

from __future__ import annotations

import ctypes
import threading

import _hashlib

BLOCK_BYTES = 16

_lib = ctypes.CDLL(_hashlib.__file__)
_lib.EVP_aes_128_ecb.argtypes = []
_lib.EVP_aes_128_ecb.restype = ctypes.c_void_p
_lib.EVP_CIPHER_CTX_new.argtypes = []
_lib.EVP_CIPHER_CTX_new.restype = ctypes.c_void_p
_lib.EVP_CIPHER_CTX_free.argtypes = [ctypes.c_void_p]
_lib.EVP_CIPHER_CTX_free.restype = None
_lib.EVP_EncryptInit_ex.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                    ctypes.c_void_p, ctypes.c_char_p,
                                    ctypes.c_char_p]
_lib.EVP_EncryptInit_ex.restype = ctypes.c_int
_lib.EVP_CIPHER_CTX_set_padding.argtypes = [ctypes.c_void_p, ctypes.c_int]
_lib.EVP_CIPHER_CTX_set_padding.restype = ctypes.c_int
_lib.EVP_EncryptUpdate.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                   ctypes.POINTER(ctypes.c_int),
                                   ctypes.c_char_p, ctypes.c_int]
_lib.EVP_EncryptUpdate.restype = ctypes.c_int


class Aes128Ecb:
    """Encrypts whole 16-byte blocks under one key; one native call per batch."""

    def __init__(self, key: bytes) -> None:
        if len(key) != BLOCK_BYTES:
            raise ValueError("AES-128 takes a 16-byte key")
        self._ctx = _lib.EVP_CIPHER_CTX_new()
        if not self._ctx:
            raise MemoryError("EVP_CIPHER_CTX_new failed")
        if (_lib.EVP_EncryptInit_ex(self._ctx, _lib.EVP_aes_128_ecb(), None,
                                    key, None) != 1
                or _lib.EVP_CIPHER_CTX_set_padding(self._ctx, 0) != 1):
            _lib.EVP_CIPHER_CTX_free(self._ctx)
            self._ctx = None
            raise RuntimeError("OpenSSL refused the AES-128-ECB key set-up")
        # one context serves every caller; OpenSSL contexts are not reentrant
        self._lock = threading.Lock()

    def encrypt(self, data: bytes) -> bytearray:
        """ECB-encrypt ``data``, whose length must be a multiple of 16."""
        n = len(data)
        if n % BLOCK_BYTES:
            raise ValueError("ECB input must be whole 16-byte blocks")
        out = bytearray(n)
        if not n:
            return out
        written = ctypes.c_int(0)
        with self._lock:
            ok = _lib.EVP_EncryptUpdate(
                self._ctx, (ctypes.c_char * n).from_buffer(out),
                ctypes.byref(written), bytes(data), n)
        if ok != 1 or written.value != n:
            raise RuntimeError("OpenSSL AES-128-ECB encryption failed")
        return out

    def __del__(self) -> None:
        if getattr(self, "_ctx", None):
            _lib.EVP_CIPHER_CTX_free(self._ctx)
            self._ctx = None


# FIPS-197, appendix C.1
_KAT_KEY = bytes(range(16))
_KAT_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
_KAT_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

if Aes128Ecb(_KAT_KEY).encrypt(_KAT_PLAIN) != _KAT_CIPHER:
    raise ImportError("AES-128-ECB from OpenSSL fails the FIPS-197 known answer")
