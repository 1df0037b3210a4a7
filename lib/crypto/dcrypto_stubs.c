/* The ESP kernels: the ChaCha20 keystream XOR and Poly1305 (RFC 8439).

   Boundary contract. The OCaml side (chacha20.ml, poly1305.ml) checks
   key and nonce sizes and every range before it calls in; these
   stubs trust their arguments. Every external is [@@noalloc]: nothing
   here allocates, raises or calls back into OCaml, so no GC can run
   during a call and the Bytes pointers taken from the arguments stay
   valid until it returns.

   Words are read and written little-endian, assembled from bytes, so
   a big-endian host computes the same keystream and tags; compilers
   fold the byte assembly into plain loads and stores on
   little-endian hosts.

   ChaCha20 runs four blocks at a time in 128-bit vectors (GCC/Clang
   vector extensions, one block per lane) and takes the last partial
   batch one block at a time with the scalar block function. Building
   with -DDCRYPTO_PORTABLE, or with a compiler without GNU
   extensions, leaves only the scalar path; the test suite links a
   second, portable build of this file and checks it against the same
   reference oracle. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

#if defined(__GNUC__) && !defined(DCRYPTO_PORTABLE)
#define DCRYPTO_VECTOR 1
#endif

static inline uint32_t load32_le(const uint8_t *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

static inline void store32_le(uint8_t *p, uint32_t v)
{
  p[0] = (uint8_t)v;
  p[1] = (uint8_t)(v >> 8);
  p[2] = (uint8_t)(v >> 16);
  p[3] = (uint8_t)(v >> 24);
}

/* --- ChaCha20 ------------------------------------------------------------ */

/* Works on uint32_t and on vectors of it alike. */
#define ROTL32(v, n) (((v) << (n)) | ((v) >> (32 - (n))))
#define QUARTER(a, b, c, d)                                                    \
  do {                                                                         \
    a += b; d ^= a; d = ROTL32(d, 16);                                         \
    c += d; b ^= c; b = ROTL32(b, 12);                                         \
    a += b; d ^= a; d = ROTL32(d, 8);                                          \
    c += d; b ^= c; b = ROTL32(b, 7);                                          \
  } while (0)
#define DOUBLE_ROUND(x)                                                        \
  do {                                                                         \
    QUARTER(x[0], x[4], x[8], x[12]);                                          \
    QUARTER(x[1], x[5], x[9], x[13]);                                          \
    QUARTER(x[2], x[6], x[10], x[14]);                                         \
    QUARTER(x[3], x[7], x[11], x[15]);                                         \
    QUARTER(x[0], x[5], x[10], x[15]);                                         \
    QUARTER(x[1], x[6], x[11], x[12]);                                         \
    QUARTER(x[2], x[7], x[8], x[13]);                                          \
    QUARTER(x[3], x[4], x[9], x[14]);                                          \
  } while (0)

/* The input state: constants, key, counter (word 12, set per block),
   nonce. */
static void chacha_init(uint32_t in[16], const uint8_t *key, const uint8_t *nonce)
{
  in[0] = 0x61707865;
  in[1] = 0x3320646e;
  in[2] = 0x79622d32;
  in[3] = 0x6b206574;
  for (int i = 0; i < 8; i++) in[4 + i] = load32_le(key + 4 * i);
  in[12] = 0;
  for (int i = 0; i < 3; i++) in[13 + i] = load32_le(nonce + 4 * i);
}

/* One 64-byte keystream block for block counter [ctr]. */
static void chacha_block(const uint32_t in[16], uint32_t ctr, uint8_t ks[64])
{
  uint32_t x[16];
  memcpy(x, in, sizeof x);
  x[12] = ctr;
  for (int i = 0; i < 10; i++) DOUBLE_ROUND(x);
  for (int i = 0; i < 16; i++) store32_le(ks + 4 * i, x[i] + (i == 12 ? ctr : in[i]));
}

#ifdef DCRYPTO_VECTOR
typedef uint32_t v4u32 __attribute__((vector_size(16)));

/* Four consecutive keystream blocks, counters [ctr .. ctr+3] (the
   32-bit counter wraps lane by lane), into ks[0 .. 256): lane j of
   x[i] is word i of block j. */
static void chacha_block4(const uint32_t in[16], uint32_t ctr, uint8_t ks[256])
{
  v4u32 x[16];
  for (int i = 0; i < 16; i++) x[i] = (v4u32){ in[i], in[i], in[i], in[i] };
  const v4u32 ctrs = { ctr, ctr + 1u, ctr + 2u, ctr + 3u };
  x[12] = ctrs;
  for (int i = 0; i < 10; i++) DOUBLE_ROUND(x);
  for (int i = 0; i < 16; i++) {
    v4u32 v = x[i] + (i == 12 ? ctrs : (v4u32){ in[i], in[i], in[i], in[i] });
    uint32_t w[4];
    memcpy(w, &v, sizeof w); /* lane order, on either byte order */
    for (int j = 0; j < 4; j++) store32_le(ks + 64 * j + 4 * i, w[j]);
  }
}
#endif

/* dst[i] = src[i] ^ ks[i] for i < n; [src] may be [dst]. The 8-byte
   lanes are byte-wise XORs, so their byte order does not matter. */
static inline void xor_keystream(uint8_t *dst, const uint8_t *src, const uint8_t *ks, size_t n)
{
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t a, b;
    memcpy(&a, src + i, 8);
    memcpy(&b, ks + i, 8);
    a ^= b;
    memcpy(dst + i, &a, 8);
  }
  for (; i < n; i++) dst[i] = src[i] ^ ks[i];
}

/* dst[0 .. len) <- src[0 .. len) XOR keystream from block [counter]
   (mod 2^32). [src] may be [dst]: each chunk is read before it is
   written. */
static void chacha20_xor(const uint8_t *key, const uint8_t *nonce, uint32_t counter,
                         const uint8_t *src, uint8_t *dst, size_t len)
{
  uint32_t in[16];
  uint8_t ks[256];
  chacha_init(in, key, nonce);
#ifdef DCRYPTO_VECTOR
  for (; len >= 256; len -= 256, src += 256, dst += 256, counter += 4) {
    chacha_block4(in, counter, ks);
    xor_keystream(dst, src, ks, 256);
  }
#endif
  for (; len > 0; counter++) {
    size_t n = len < 64 ? len : 64;
    chacha_block(in, counter, ks);
    xor_keystream(dst, src, ks, n);
    len -= n;
    src += n;
    dst += n;
  }
}

/* --- Poly1305 ------------------------------------------------------------ */

/* 26-bit limbs with 64-bit products (the "donna" 32-bit layout): the
   130-bit accumulator and the clamped key each take five limbs, and
   reduction mod 2^130 - 5 folds the high limbs back times 5. */
static void poly1305_mac(const uint8_t key[32], const uint8_t *m, size_t len, uint8_t tag[16])
{
  const uint32_t mask = 0x3ffffff;
  const uint32_t r0 = load32_le(key) & 0x3ffffff;
  const uint32_t r1 = (load32_le(key + 3) >> 2) & 0x3ffff03;
  const uint32_t r2 = (load32_le(key + 6) >> 4) & 0x3ffc0ff;
  const uint32_t r3 = (load32_le(key + 9) >> 6) & 0x3f03fff;
  const uint32_t r4 = (load32_le(key + 12) >> 8) & 0x00fffff;
  const uint32_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;
  uint32_t h0 = 0, h1 = 0, h2 = 0, h3 = 0, h4 = 0, c;
  uint8_t last[16];

  while (len > 0) {
    /* A full block carries the 2^128 pad bit; a final partial block
       is staged zero-padded behind its 2^(8n) bit. */
    const uint8_t *b = m;
    uint32_t hibit = 1u << 24;
    size_t n = 16;
    if (len < 16) {
      n = len;
      memset(last, 0, sizeof last);
      memcpy(last, m, n);
      last[n] = 1;
      b = last;
      hibit = 0;
    }
    h0 += load32_le(b) & mask;
    h1 += (load32_le(b + 3) >> 2) & mask;
    h2 += (load32_le(b + 6) >> 4) & mask;
    h3 += (load32_le(b + 9) >> 6) & mask;
    h4 += (load32_le(b + 12) >> 8) | hibit;

    /* h <- h * r mod 2^130 - 5 */
    uint64_t d0 = (uint64_t)h0 * r0 + (uint64_t)h1 * s4 + (uint64_t)h2 * s3
                  + (uint64_t)h3 * s2 + (uint64_t)h4 * s1;
    uint64_t d1 = (uint64_t)h0 * r1 + (uint64_t)h1 * r0 + (uint64_t)h2 * s4
                  + (uint64_t)h3 * s3 + (uint64_t)h4 * s2;
    uint64_t d2 = (uint64_t)h0 * r2 + (uint64_t)h1 * r1 + (uint64_t)h2 * r0
                  + (uint64_t)h3 * s4 + (uint64_t)h4 * s3;
    uint64_t d3 = (uint64_t)h0 * r3 + (uint64_t)h1 * r2 + (uint64_t)h2 * r1
                  + (uint64_t)h3 * r0 + (uint64_t)h4 * s4;
    uint64_t d4 = (uint64_t)h0 * r4 + (uint64_t)h1 * r3 + (uint64_t)h2 * r2
                  + (uint64_t)h3 * r1 + (uint64_t)h4 * r0;
    c = (uint32_t)(d0 >> 26); h0 = (uint32_t)d0 & mask;
    d1 += c; c = (uint32_t)(d1 >> 26); h1 = (uint32_t)d1 & mask;
    d2 += c; c = (uint32_t)(d2 >> 26); h2 = (uint32_t)d2 & mask;
    d3 += c; c = (uint32_t)(d3 >> 26); h3 = (uint32_t)d3 & mask;
    d4 += c; c = (uint32_t)(d4 >> 26); h4 = (uint32_t)d4 & mask;
    h0 += c * 5; c = h0 >> 26; h0 &= mask;
    h1 += c;

    m += n;
    len -= n;
  }

  /* Full carry and reduce below 2^130 - 5. */
  c = h1 >> 26; h1 &= mask;
  h2 += c; c = h2 >> 26; h2 &= mask;
  h3 += c; c = h3 >> 26; h3 &= mask;
  h4 += c; c = h4 >> 26; h4 &= mask;
  h0 += c * 5; c = h0 >> 26; h0 &= mask;
  h1 += c;

  /* g = h + 5 - 2^130; select it, without a branch, if non-negative. */
  uint32_t g0 = h0 + 5; c = g0 >> 26; g0 &= mask;
  uint32_t g1 = h1 + c; c = g1 >> 26; g1 &= mask;
  uint32_t g2 = h2 + c; c = g2 >> 26; g2 &= mask;
  uint32_t g3 = h3 + c; c = g3 >> 26; g3 &= mask;
  uint32_t g4 = h4 + c - (1u << 26);
  uint32_t keep_g = (g4 >> 31) - 1; /* all ones when g4 >= 0 */
  h0 = (h0 & ~keep_g) | (g0 & keep_g);
  h1 = (h1 & ~keep_g) | (g1 & keep_g);
  h2 = (h2 & ~keep_g) | (g2 & keep_g);
  h3 = (h3 & ~keep_g) | (g3 & keep_g);
  h4 = (h4 & ~keep_g) | (g4 & keep_g);

  /* tag = (h + s) mod 2^128, little-endian. */
  uint64_t f;
  f = (uint64_t)(h0 | (h1 << 26)) + load32_le(key + 16);
  store32_le(tag, (uint32_t)f);
  f = (uint64_t)((h1 >> 6) | (h2 << 20)) + load32_le(key + 20) + (f >> 32);
  store32_le(tag + 4, (uint32_t)f);
  f = (uint64_t)((h2 >> 12) | (h3 << 14)) + load32_le(key + 24) + (f >> 32);
  store32_le(tag + 8, (uint32_t)f);
  f = (uint64_t)((h3 >> 18) | (h4 << 8)) + load32_le(key + 28) + (f >> 32);
  store32_le(tag + 12, (uint32_t)f);
}

/* --- OCaml entry points -------------------------------------------------- */

/* [key nonce counter src src_off dst dst_off len]: see chacha20_xor. */
CAMLprim value dcrypto_chacha20_xor(value key, value nonce, value counter, value src,
                                    value src_off, value dst, value dst_off, value len)
{
  chacha20_xor((const uint8_t *)String_val(key), (const uint8_t *)String_val(nonce),
               (uint32_t)Long_val(counter),
               (const uint8_t *)String_val(src) + Long_val(src_off),
               (uint8_t *)Bytes_val(dst) + Long_val(dst_off), (size_t)Long_val(len));
  return Val_unit;
}

CAMLprim value dcrypto_chacha20_xor_byte(value *argv, int argn)
{
  (void)argn;
  return dcrypto_chacha20_xor(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                              argv[6], argv[7]);
}

/* [key msg off len tag]: the 16-byte tag of msg[off .. off+len). */
CAMLprim value dcrypto_poly1305_mac(value key, value msg, value off, value len, value tag)
{
  poly1305_mac((const uint8_t *)String_val(key),
               (const uint8_t *)String_val(msg) + Long_val(off), (size_t)Long_val(len),
               (uint8_t *)Bytes_val(tag));
  return Val_unit;
}
