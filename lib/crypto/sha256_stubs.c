/* SHA-256 compression on the x86-64 SHA extensions.

   [Sha256] asks [guillotine_sha256_ni_available] once, when the module
   is initialised, whether this CPU runs SHA256RNDS2, SHA256MSG1 and
   SHA256MSG2, and the SSSE3 and SSE4.1 instructions the compressing
   function is compiled with beside them (byte shuffles, and the blends
   and extracts that move the state); if so, it passes every run of
   whole 64-byte blocks to [guillotine_sha256_ni_blocks] and every run
   of 32-byte messages hashed slot for slot to
   [guillotine_sha256_ni_slots], and otherwise to its own OCaml kernel,
   which is also the reference the tests hold this one to.  On any
   other architecture or compiler this file compiles to a stub that
   answers "absent".

   The blocks function reads and writes the context's chaining state
   in place: an OCaml [int array] of eight 32-bit words, as tagged
   immediates, so a store needs no write barrier.  The slots function
   reads bytes and writes bytes.  Neither allocates, raises, calls
   OCaml or keeps state between calls; the file's only static object
   is the round-constant table, and it is const. */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) \
  && ((defined(__clang__) && __clang_major__ >= 6) \
      || (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 7))

#include <cpuid.h>
#include <immintrin.h>

/* The first 32 bits of the fractional parts of the cube roots of the
   first 64 primes (FIPS 180-4, 4.2.2), four per quad-round. */
static const uint32_t k256[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* SHA (leaf 7, EBX bit 29), SSSE3 and SSE4.1 (leaf 1, ECX bits 9 and
   19). */
CAMLprim value guillotine_sha256_ni_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_SSSE3) || !(c & bit_SSE4_1))
    return Val_false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
    return Val_false;
  return Val_bool((b & bit_SHA) != 0);
}

/* Four rounds on message words [m] (already byte-swapped): add the
   round constants of quad-round [j], run two rounds on the low pair
   and two on the high pair.  [abef] and [cdgh] are the state as the
   SHA256RNDS2 instruction holds it. */
#define QUAD(j, m)                                                          \
  do {                                                                      \
    __m128i wk = _mm_add_epi32((m), _mm_load_si128((const __m128i *)&k256[4 * (j)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                           \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));  \
  } while (0)

/* The next four schedule words into [m0], from the sixteen in [m0]-[m3]
   (oldest first): W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]). */
#define SCHEDULE(m0, m1, m2, m3)                                            \
  (m0 = _mm_sha256msg2_epu32(                                               \
     _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4)), m3))

__attribute__((target("sha,sse4.1,ssse3")))
static void compress_blocks(value h, const unsigned char *p, intnat n)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i abef = _mm_set_epi32((int)Long_val(Field(h, 0)), (int)Long_val(Field(h, 1)),
                               (int)Long_val(Field(h, 4)), (int)Long_val(Field(h, 5)));
  __m128i cdgh = _mm_set_epi32((int)Long_val(Field(h, 2)), (int)Long_val(Field(h, 3)),
                               (int)Long_val(Field(h, 6)), (int)Long_val(Field(h, 7)));
  uint32_t out[8] __attribute__((aligned(16)));
  int j;
  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    QUAD(0, m0); QUAD(1, m1); QUAD(2, m2); QUAD(3, m3);
    for (j = 4; j < 16; j += 4) {
      SCHEDULE(m0, m1, m2, m3); QUAD(j, m0);
      SCHEDULE(m1, m2, m3, m0); QUAD(j + 1, m1);
      SCHEDULE(m2, m3, m0, m1); QUAD(j + 2, m2);
      SCHEDULE(m3, m0, m1, m2); QUAD(j + 3, m3);
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  /* Lanes 0-3 hold F, E, B, A, then H, G, D, C. */
  _mm_store_si128((__m128i *)out, abef);
  _mm_store_si128((__m128i *)(out + 4), cdgh);
  Field(h, 0) = Val_long(out[3]); Field(h, 1) = Val_long(out[2]);
  Field(h, 2) = Val_long(out[7]); Field(h, 3) = Val_long(out[6]);
  Field(h, 4) = Val_long(out[1]); Field(h, 5) = Val_long(out[0]);
  Field(h, 6) = Val_long(out[5]); Field(h, 7) = Val_long(out[4]);
}

/* The digests of the [n] 32-byte messages at [p] into the [n] 32-byte
   slots at [q].  A 32-byte message is one block whose second half is
   constant padding: 0x80000000, six zero words and the 64-bit bit
   length 256.  Each block starts from the initial state and never
   leaves the registers before its digest is stored big-endian.  One
   message at a time: the rounds of one block are a dependency chain,
   but interleaving two messages gained at most 3% on a Xeon with the
   SHA extensions, for twice the code (DESIGN.md, "The hardware
   kernel"). */
__attribute__((target("sha,sse4.1,ssse3")))
static void digest_slots(const unsigned char *p, unsigned char *q, intnat n)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i abef_iv = _mm_set_epi32(0x6a09e667, (int)0xbb67ae85, 0x510e527f, (int)0x9b05688c);
  const __m128i cdgh_iv = _mm_set_epi32(0x3c6ef372, (int)0xa54ff53a, 0x1f83d9ab, 0x5be0cd19);
  const __m128i pad = _mm_set_epi32(0, 0, 0, (int)0x80000000);
  const __m128i len = _mm_set_epi32(256, 0, 0, 0);
  int j;
  for (; n > 0; n--, p += 32, q += 32) {
    __m128i abef = abef_iv, cdgh = cdgh_iv, lo, hi;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = pad, m3 = len;
    QUAD(0, m0); QUAD(1, m1); QUAD(2, m2); QUAD(3, m3);
    for (j = 4; j < 16; j += 4) {
      SCHEDULE(m0, m1, m2, m3); QUAD(j, m0);
      SCHEDULE(m1, m2, m3, m0); QUAD(j + 1, m1);
      SCHEDULE(m2, m3, m0, m1); QUAD(j + 2, m2);
      SCHEDULE(m3, m0, m1, m2); QUAD(j + 3, m3);
    }
    abef = _mm_add_epi32(abef, abef_iv);
    cdgh = _mm_add_epi32(cdgh, cdgh_iv);
    /* Lanes F, E, B, A and H, G, D, C to A, B, C, D and E, F, G, H. */
    abef = _mm_shuffle_epi32(abef, 0x1b);
    cdgh = _mm_shuffle_epi32(cdgh, 0xb1);
    lo = _mm_blend_epi16(abef, cdgh, 0xf0);
    hi = _mm_alignr_epi8(cdgh, abef, 8);
    _mm_storeu_si128((__m128i *)q, _mm_shuffle_epi8(lo, bswap));
    _mm_storeu_si128((__m128i *)(q + 16), _mm_shuffle_epi8(hi, bswap));
  }
}

#else

CAMLprim value guillotine_sha256_ni_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* Never called: [Sha256] calls the blocks and slots functions only
   where the function above answers true. */
static void compress_blocks(value h, const unsigned char *p, intnat n)
{
  (void)h; (void)p; (void)n;
  abort();
}

static void digest_slots(const unsigned char *p, unsigned char *q, intnat n)
{
  (void)p; (void)q; (void)n;
  abort();
}

#endif

/* [blocks h src off n] compresses the [n] 64-byte blocks of [src] from
   byte [off] into the chaining state [h]. */
CAMLprim value guillotine_sha256_ni_blocks(value h, value src, intnat off, intnat n)
{
  compress_blocks(h, Bytes_val(src) + off, n);
  return Val_unit;
}

CAMLprim value guillotine_sha256_ni_blocks_byte(value h, value src, value off, value n)
{
  return guillotine_sha256_ni_blocks(h, src, Long_val(off), Long_val(n));
}

/* [slots src off n out at] writes the digests of the [n] 32-byte
   messages of [src] from byte [off] into the [n] 32-byte slots of
   [out] from byte [at]. */
CAMLprim value guillotine_sha256_ni_slots(value src, intnat off, intnat n, value out, intnat at)
{
  digest_slots(Bytes_val(src) + off, Bytes_val(out) + at, n);
  return Val_unit;
}

CAMLprim value guillotine_sha256_ni_slots_byte(value src, value off, value n, value out,
                                               value at)
{
  return guillotine_sha256_ni_slots(src, Long_val(off), Long_val(n), out, Long_val(at));
}
