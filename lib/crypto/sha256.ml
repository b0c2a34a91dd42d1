type digest = string

(* 32-bit words live in unboxed [int64] locals, combined only through
   these primitives, so the compression function allocates nothing and
   no operation needs an OCaml tag fix-up. *)
external ( +: ) : int64 -> int64 -> int64 = "%int64_add"
external ( &: ) : int64 -> int64 -> int64 = "%int64_and"
external ( |: ) : int64 -> int64 -> int64 = "%int64_or"
external ( ^: ) : int64 -> int64 -> int64 = "%int64_xor"
external ( <<: ) : int64 -> int -> int64 = "%int64_lsl"
external ( >>: ) : int64 -> int -> int64 = "%int64_lsr"

let[@inline] lo32 x = x &: 0xFFFF_FFFFL

type ctx = {
  h : int array;   (* 8 chaining values *)
  buf : Bytes.t;   (* partial block, 64 bytes *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes fed *)
  mutable finished : bool;
}

(* The initial hash values (first 32 bits of the fractional parts of the
   square roots of the first 8 primes), an empty block and no bytes. *)
let reset ctx =
  let h = ctx.h in
  h.(0) <- 0x6a09e667; h.(1) <- 0xbb67ae85; h.(2) <- 0x3c6ef372; h.(3) <- 0xa54ff53a;
  h.(4) <- 0x510e527f; h.(5) <- 0x9b05688c; h.(6) <- 0x1f83d9ab; h.(7) <- 0x5be0cd19;
  ctx.buf_len <- 0;
  ctx.total <- 0;
  ctx.finished <- false

let init () =
  let ctx =
    { h = Array.make 8 0; buf = Bytes.create 64; buf_len = 0; total = 0;
      finished = false }
  in
  reset ctx;
  ctx

(* Every rotation reads a doubled word.  For a 32-bit [x],
   [x |: (x <<: 32)] holds [x] in bits 0-31 and again in bits 32-63, so
   bits 0-31 of [(x |: (x <<: 32)) >>: n] are [x] rotated right by [n]
   for every [n <= 32]; SHA-256 rotates by at most 25.  The inputs must
   be clean 32-bit words, so [a], [e] and every schedule word are
   masked where they are computed.  These functions leave garbage above
   bit 31: only the low 32 bits of a sum depend on the low 32 bits of
   its terms, so one mask on each computed word is enough. *)
let[@inline] doubled x = x |: (x <<: 32)

let[@inline] big_sigma0 x =
  let x2 = doubled x in
  (x2 >>: 2) ^: (x2 >>: 13) ^: (x2 >>: 22)

let[@inline] big_sigma1 x =
  let x2 = doubled x in
  (x2 >>: 6) ^: (x2 >>: 11) ^: (x2 >>: 25)

let[@inline] small_sigma0 x =
  let x2 = doubled x in
  (x2 >>: 7) ^: (x2 >>: 18) ^: (x >>: 3)

let[@inline] small_sigma1 x =
  let x2 = doubled x in
  (x2 >>: 17) ^: (x2 >>: 19) ^: (x >>: 10)

let[@inline] ch e f g = g ^: (e &: (f ^: g))
let[@inline] maj a b c = (a &: (b |: c)) |: (b &: c)

(* Big-endian word [i] of the block at [off]. *)
let[@inline] word block off i =
  lo32 (Int64.of_int32 (Bytes.get_int32_be block (off + (4 * i))))

let[@inline] get st i = Int64.of_int (Array.unsafe_get st i)
let[@inline] add_into st i x = Array.unsafe_set st i (Int64.to_int (lo32 (x +: get st i)))

(* Compress the 64-byte block at [off] in [block].  Input strings reach
   here through [Bytes.unsafe_of_string]; the block is only read.

   The 64 rounds are written out: no round closes a loop, indexes a
   schedule array or loads its constant (the first 32 bits of the
   fractional part of the cube root of the round's prime), which is an
   immediate, and the register allocator places the whole block at
   once.  The eight state names rotate by shadowing: in round [i]
   the roles [a]-[h] fall to the names [a]-[h] rotated right by
   [i mod 8], and the round rebinds only the names that play [d] and [h]
   (to the new [e] and the new [a]), so no value moves; after 64 rounds
   every name is back in its own role.  The schedule is a window of 16
   names, [w0]-[w15]: from round 16 on, round [i] computes word [i]
   into the name of word [i - 16] just before it reads it. *)
let compress ctx block off =
  let st = ctx.h in
  let w0 = word block off 0 and w1 = word block off 1 and w2 = word block off 2
  and w3 = word block off 3 and w4 = word block off 4 and w5 = word block off 5
  and w6 = word block off 6 and w7 = word block off 7 and w8 = word block off 8
  and w9 = word block off 9 and w10 = word block off 10 and w11 = word block off 11
  and w12 = word block off 12 and w13 = word block off 13 and w14 = word block off 14
  and w15 = word block off 15 in
  let a = get st 0 and b = get st 1 and c = get st 2 and d = get st 3
  and e = get st 4 and f = get st 5 and g = get st 6 and h = get st 7 in
  (* Rounds 0-7. *)
  let t = h +: big_sigma1 e +: ch e f g +: 0x428a2f98L +: w0 in
  let d = lo32 (d +: t) and h = lo32 (t +: big_sigma0 a +: maj a b c) in
  let t = g +: big_sigma1 d +: ch d e f +: 0x71374491L +: w1 in
  let c = lo32 (c +: t) and g = lo32 (t +: big_sigma0 h +: maj h a b) in
  let t = f +: big_sigma1 c +: ch c d e +: 0xb5c0fbcfL +: w2 in
  let b = lo32 (b +: t) and f = lo32 (t +: big_sigma0 g +: maj g h a) in
  let t = e +: big_sigma1 b +: ch b c d +: 0xe9b5dba5L +: w3 in
  let a = lo32 (a +: t) and e = lo32 (t +: big_sigma0 f +: maj f g h) in
  let t = d +: big_sigma1 a +: ch a b c +: 0x3956c25bL +: w4 in
  let h = lo32 (h +: t) and d = lo32 (t +: big_sigma0 e +: maj e f g) in
  let t = c +: big_sigma1 h +: ch h a b +: 0x59f111f1L +: w5 in
  let g = lo32 (g +: t) and c = lo32 (t +: big_sigma0 d +: maj d e f) in
  let t = b +: big_sigma1 g +: ch g h a +: 0x923f82a4L +: w6 in
  let f = lo32 (f +: t) and b = lo32 (t +: big_sigma0 c +: maj c d e) in
  let t = a +: big_sigma1 f +: ch f g h +: 0xab1c5ed5L +: w7 in
  let e = lo32 (e +: t) and a = lo32 (t +: big_sigma0 b +: maj b c d) in
  (* Rounds 8-15. *)
  let t = h +: big_sigma1 e +: ch e f g +: 0xd807aa98L +: w8 in
  let d = lo32 (d +: t) and h = lo32 (t +: big_sigma0 a +: maj a b c) in
  let t = g +: big_sigma1 d +: ch d e f +: 0x12835b01L +: w9 in
  let c = lo32 (c +: t) and g = lo32 (t +: big_sigma0 h +: maj h a b) in
  let t = f +: big_sigma1 c +: ch c d e +: 0x243185beL +: w10 in
  let b = lo32 (b +: t) and f = lo32 (t +: big_sigma0 g +: maj g h a) in
  let t = e +: big_sigma1 b +: ch b c d +: 0x550c7dc3L +: w11 in
  let a = lo32 (a +: t) and e = lo32 (t +: big_sigma0 f +: maj f g h) in
  let t = d +: big_sigma1 a +: ch a b c +: 0x72be5d74L +: w12 in
  let h = lo32 (h +: t) and d = lo32 (t +: big_sigma0 e +: maj e f g) in
  let t = c +: big_sigma1 h +: ch h a b +: 0x80deb1feL +: w13 in
  let g = lo32 (g +: t) and c = lo32 (t +: big_sigma0 d +: maj d e f) in
  let t = b +: big_sigma1 g +: ch g h a +: 0x9bdc06a7L +: w14 in
  let f = lo32 (f +: t) and b = lo32 (t +: big_sigma0 c +: maj c d e) in
  let t = a +: big_sigma1 f +: ch f g h +: 0xc19bf174L +: w15 in
  let e = lo32 (e +: t) and a = lo32 (t +: big_sigma0 b +: maj b c d) in
  (* Rounds 16-23. *)
  let w0 = lo32 (w0 +: small_sigma0 w1 +: w9 +: small_sigma1 w14) in
  let t = h +: big_sigma1 e +: ch e f g +: 0xe49b69c1L +: w0 in
  let d = lo32 (d +: t) and h = lo32 (t +: big_sigma0 a +: maj a b c) in
  let w1 = lo32 (w1 +: small_sigma0 w2 +: w10 +: small_sigma1 w15) in
  let t = g +: big_sigma1 d +: ch d e f +: 0xefbe4786L +: w1 in
  let c = lo32 (c +: t) and g = lo32 (t +: big_sigma0 h +: maj h a b) in
  let w2 = lo32 (w2 +: small_sigma0 w3 +: w11 +: small_sigma1 w0) in
  let t = f +: big_sigma1 c +: ch c d e +: 0x0fc19dc6L +: w2 in
  let b = lo32 (b +: t) and f = lo32 (t +: big_sigma0 g +: maj g h a) in
  let w3 = lo32 (w3 +: small_sigma0 w4 +: w12 +: small_sigma1 w1) in
  let t = e +: big_sigma1 b +: ch b c d +: 0x240ca1ccL +: w3 in
  let a = lo32 (a +: t) and e = lo32 (t +: big_sigma0 f +: maj f g h) in
  let w4 = lo32 (w4 +: small_sigma0 w5 +: w13 +: small_sigma1 w2) in
  let t = d +: big_sigma1 a +: ch a b c +: 0x2de92c6fL +: w4 in
  let h = lo32 (h +: t) and d = lo32 (t +: big_sigma0 e +: maj e f g) in
  let w5 = lo32 (w5 +: small_sigma0 w6 +: w14 +: small_sigma1 w3) in
  let t = c +: big_sigma1 h +: ch h a b +: 0x4a7484aaL +: w5 in
  let g = lo32 (g +: t) and c = lo32 (t +: big_sigma0 d +: maj d e f) in
  let w6 = lo32 (w6 +: small_sigma0 w7 +: w15 +: small_sigma1 w4) in
  let t = b +: big_sigma1 g +: ch g h a +: 0x5cb0a9dcL +: w6 in
  let f = lo32 (f +: t) and b = lo32 (t +: big_sigma0 c +: maj c d e) in
  let w7 = lo32 (w7 +: small_sigma0 w8 +: w0 +: small_sigma1 w5) in
  let t = a +: big_sigma1 f +: ch f g h +: 0x76f988daL +: w7 in
  let e = lo32 (e +: t) and a = lo32 (t +: big_sigma0 b +: maj b c d) in
  (* Rounds 24-31. *)
  let w8 = lo32 (w8 +: small_sigma0 w9 +: w1 +: small_sigma1 w6) in
  let t = h +: big_sigma1 e +: ch e f g +: 0x983e5152L +: w8 in
  let d = lo32 (d +: t) and h = lo32 (t +: big_sigma0 a +: maj a b c) in
  let w9 = lo32 (w9 +: small_sigma0 w10 +: w2 +: small_sigma1 w7) in
  let t = g +: big_sigma1 d +: ch d e f +: 0xa831c66dL +: w9 in
  let c = lo32 (c +: t) and g = lo32 (t +: big_sigma0 h +: maj h a b) in
  let w10 = lo32 (w10 +: small_sigma0 w11 +: w3 +: small_sigma1 w8) in
  let t = f +: big_sigma1 c +: ch c d e +: 0xb00327c8L +: w10 in
  let b = lo32 (b +: t) and f = lo32 (t +: big_sigma0 g +: maj g h a) in
  let w11 = lo32 (w11 +: small_sigma0 w12 +: w4 +: small_sigma1 w9) in
  let t = e +: big_sigma1 b +: ch b c d +: 0xbf597fc7L +: w11 in
  let a = lo32 (a +: t) and e = lo32 (t +: big_sigma0 f +: maj f g h) in
  let w12 = lo32 (w12 +: small_sigma0 w13 +: w5 +: small_sigma1 w10) in
  let t = d +: big_sigma1 a +: ch a b c +: 0xc6e00bf3L +: w12 in
  let h = lo32 (h +: t) and d = lo32 (t +: big_sigma0 e +: maj e f g) in
  let w13 = lo32 (w13 +: small_sigma0 w14 +: w6 +: small_sigma1 w11) in
  let t = c +: big_sigma1 h +: ch h a b +: 0xd5a79147L +: w13 in
  let g = lo32 (g +: t) and c = lo32 (t +: big_sigma0 d +: maj d e f) in
  let w14 = lo32 (w14 +: small_sigma0 w15 +: w7 +: small_sigma1 w12) in
  let t = b +: big_sigma1 g +: ch g h a +: 0x06ca6351L +: w14 in
  let f = lo32 (f +: t) and b = lo32 (t +: big_sigma0 c +: maj c d e) in
  let w15 = lo32 (w15 +: small_sigma0 w0 +: w8 +: small_sigma1 w13) in
  let t = a +: big_sigma1 f +: ch f g h +: 0x14292967L +: w15 in
  let e = lo32 (e +: t) and a = lo32 (t +: big_sigma0 b +: maj b c d) in
  (* Rounds 32-39. *)
  let w0 = lo32 (w0 +: small_sigma0 w1 +: w9 +: small_sigma1 w14) in
  let t = h +: big_sigma1 e +: ch e f g +: 0x27b70a85L +: w0 in
  let d = lo32 (d +: t) and h = lo32 (t +: big_sigma0 a +: maj a b c) in
  let w1 = lo32 (w1 +: small_sigma0 w2 +: w10 +: small_sigma1 w15) in
  let t = g +: big_sigma1 d +: ch d e f +: 0x2e1b2138L +: w1 in
  let c = lo32 (c +: t) and g = lo32 (t +: big_sigma0 h +: maj h a b) in
  let w2 = lo32 (w2 +: small_sigma0 w3 +: w11 +: small_sigma1 w0) in
  let t = f +: big_sigma1 c +: ch c d e +: 0x4d2c6dfcL +: w2 in
  let b = lo32 (b +: t) and f = lo32 (t +: big_sigma0 g +: maj g h a) in
  let w3 = lo32 (w3 +: small_sigma0 w4 +: w12 +: small_sigma1 w1) in
  let t = e +: big_sigma1 b +: ch b c d +: 0x53380d13L +: w3 in
  let a = lo32 (a +: t) and e = lo32 (t +: big_sigma0 f +: maj f g h) in
  let w4 = lo32 (w4 +: small_sigma0 w5 +: w13 +: small_sigma1 w2) in
  let t = d +: big_sigma1 a +: ch a b c +: 0x650a7354L +: w4 in
  let h = lo32 (h +: t) and d = lo32 (t +: big_sigma0 e +: maj e f g) in
  let w5 = lo32 (w5 +: small_sigma0 w6 +: w14 +: small_sigma1 w3) in
  let t = c +: big_sigma1 h +: ch h a b +: 0x766a0abbL +: w5 in
  let g = lo32 (g +: t) and c = lo32 (t +: big_sigma0 d +: maj d e f) in
  let w6 = lo32 (w6 +: small_sigma0 w7 +: w15 +: small_sigma1 w4) in
  let t = b +: big_sigma1 g +: ch g h a +: 0x81c2c92eL +: w6 in
  let f = lo32 (f +: t) and b = lo32 (t +: big_sigma0 c +: maj c d e) in
  let w7 = lo32 (w7 +: small_sigma0 w8 +: w0 +: small_sigma1 w5) in
  let t = a +: big_sigma1 f +: ch f g h +: 0x92722c85L +: w7 in
  let e = lo32 (e +: t) and a = lo32 (t +: big_sigma0 b +: maj b c d) in
  (* Rounds 40-47. *)
  let w8 = lo32 (w8 +: small_sigma0 w9 +: w1 +: small_sigma1 w6) in
  let t = h +: big_sigma1 e +: ch e f g +: 0xa2bfe8a1L +: w8 in
  let d = lo32 (d +: t) and h = lo32 (t +: big_sigma0 a +: maj a b c) in
  let w9 = lo32 (w9 +: small_sigma0 w10 +: w2 +: small_sigma1 w7) in
  let t = g +: big_sigma1 d +: ch d e f +: 0xa81a664bL +: w9 in
  let c = lo32 (c +: t) and g = lo32 (t +: big_sigma0 h +: maj h a b) in
  let w10 = lo32 (w10 +: small_sigma0 w11 +: w3 +: small_sigma1 w8) in
  let t = f +: big_sigma1 c +: ch c d e +: 0xc24b8b70L +: w10 in
  let b = lo32 (b +: t) and f = lo32 (t +: big_sigma0 g +: maj g h a) in
  let w11 = lo32 (w11 +: small_sigma0 w12 +: w4 +: small_sigma1 w9) in
  let t = e +: big_sigma1 b +: ch b c d +: 0xc76c51a3L +: w11 in
  let a = lo32 (a +: t) and e = lo32 (t +: big_sigma0 f +: maj f g h) in
  let w12 = lo32 (w12 +: small_sigma0 w13 +: w5 +: small_sigma1 w10) in
  let t = d +: big_sigma1 a +: ch a b c +: 0xd192e819L +: w12 in
  let h = lo32 (h +: t) and d = lo32 (t +: big_sigma0 e +: maj e f g) in
  let w13 = lo32 (w13 +: small_sigma0 w14 +: w6 +: small_sigma1 w11) in
  let t = c +: big_sigma1 h +: ch h a b +: 0xd6990624L +: w13 in
  let g = lo32 (g +: t) and c = lo32 (t +: big_sigma0 d +: maj d e f) in
  let w14 = lo32 (w14 +: small_sigma0 w15 +: w7 +: small_sigma1 w12) in
  let t = b +: big_sigma1 g +: ch g h a +: 0xf40e3585L +: w14 in
  let f = lo32 (f +: t) and b = lo32 (t +: big_sigma0 c +: maj c d e) in
  let w15 = lo32 (w15 +: small_sigma0 w0 +: w8 +: small_sigma1 w13) in
  let t = a +: big_sigma1 f +: ch f g h +: 0x106aa070L +: w15 in
  let e = lo32 (e +: t) and a = lo32 (t +: big_sigma0 b +: maj b c d) in
  (* Rounds 48-55. *)
  let w0 = lo32 (w0 +: small_sigma0 w1 +: w9 +: small_sigma1 w14) in
  let t = h +: big_sigma1 e +: ch e f g +: 0x19a4c116L +: w0 in
  let d = lo32 (d +: t) and h = lo32 (t +: big_sigma0 a +: maj a b c) in
  let w1 = lo32 (w1 +: small_sigma0 w2 +: w10 +: small_sigma1 w15) in
  let t = g +: big_sigma1 d +: ch d e f +: 0x1e376c08L +: w1 in
  let c = lo32 (c +: t) and g = lo32 (t +: big_sigma0 h +: maj h a b) in
  let w2 = lo32 (w2 +: small_sigma0 w3 +: w11 +: small_sigma1 w0) in
  let t = f +: big_sigma1 c +: ch c d e +: 0x2748774cL +: w2 in
  let b = lo32 (b +: t) and f = lo32 (t +: big_sigma0 g +: maj g h a) in
  let w3 = lo32 (w3 +: small_sigma0 w4 +: w12 +: small_sigma1 w1) in
  let t = e +: big_sigma1 b +: ch b c d +: 0x34b0bcb5L +: w3 in
  let a = lo32 (a +: t) and e = lo32 (t +: big_sigma0 f +: maj f g h) in
  let w4 = lo32 (w4 +: small_sigma0 w5 +: w13 +: small_sigma1 w2) in
  let t = d +: big_sigma1 a +: ch a b c +: 0x391c0cb3L +: w4 in
  let h = lo32 (h +: t) and d = lo32 (t +: big_sigma0 e +: maj e f g) in
  let w5 = lo32 (w5 +: small_sigma0 w6 +: w14 +: small_sigma1 w3) in
  let t = c +: big_sigma1 h +: ch h a b +: 0x4ed8aa4aL +: w5 in
  let g = lo32 (g +: t) and c = lo32 (t +: big_sigma0 d +: maj d e f) in
  let w6 = lo32 (w6 +: small_sigma0 w7 +: w15 +: small_sigma1 w4) in
  let t = b +: big_sigma1 g +: ch g h a +: 0x5b9cca4fL +: w6 in
  let f = lo32 (f +: t) and b = lo32 (t +: big_sigma0 c +: maj c d e) in
  let w7 = lo32 (w7 +: small_sigma0 w8 +: w0 +: small_sigma1 w5) in
  let t = a +: big_sigma1 f +: ch f g h +: 0x682e6ff3L +: w7 in
  let e = lo32 (e +: t) and a = lo32 (t +: big_sigma0 b +: maj b c d) in
  (* Rounds 56-63. *)
  let w8 = lo32 (w8 +: small_sigma0 w9 +: w1 +: small_sigma1 w6) in
  let t = h +: big_sigma1 e +: ch e f g +: 0x748f82eeL +: w8 in
  let d = lo32 (d +: t) and h = lo32 (t +: big_sigma0 a +: maj a b c) in
  let w9 = lo32 (w9 +: small_sigma0 w10 +: w2 +: small_sigma1 w7) in
  let t = g +: big_sigma1 d +: ch d e f +: 0x78a5636fL +: w9 in
  let c = lo32 (c +: t) and g = lo32 (t +: big_sigma0 h +: maj h a b) in
  let w10 = lo32 (w10 +: small_sigma0 w11 +: w3 +: small_sigma1 w8) in
  let t = f +: big_sigma1 c +: ch c d e +: 0x84c87814L +: w10 in
  let b = lo32 (b +: t) and f = lo32 (t +: big_sigma0 g +: maj g h a) in
  let w11 = lo32 (w11 +: small_sigma0 w12 +: w4 +: small_sigma1 w9) in
  let t = e +: big_sigma1 b +: ch b c d +: 0x8cc70208L +: w11 in
  let a = lo32 (a +: t) and e = lo32 (t +: big_sigma0 f +: maj f g h) in
  let w12 = lo32 (w12 +: small_sigma0 w13 +: w5 +: small_sigma1 w10) in
  let t = d +: big_sigma1 a +: ch a b c +: 0x90befffaL +: w12 in
  let h = lo32 (h +: t) and d = lo32 (t +: big_sigma0 e +: maj e f g) in
  let w13 = lo32 (w13 +: small_sigma0 w14 +: w6 +: small_sigma1 w11) in
  let t = c +: big_sigma1 h +: ch h a b +: 0xa4506cebL +: w13 in
  let g = lo32 (g +: t) and c = lo32 (t +: big_sigma0 d +: maj d e f) in
  let w14 = lo32 (w14 +: small_sigma0 w15 +: w7 +: small_sigma1 w12) in
  let t = b +: big_sigma1 g +: ch g h a +: 0xbef9a3f7L +: w14 in
  let f = lo32 (f +: t) and b = lo32 (t +: big_sigma0 c +: maj c d e) in
  let w15 = lo32 (w15 +: small_sigma0 w0 +: w8 +: small_sigma1 w13) in
  let t = a +: big_sigma1 f +: ch f g h +: 0xc67178f2L +: w15 in
  let e = lo32 (e +: t) and a = lo32 (t +: big_sigma0 b +: maj b c d) in
  add_into st 0 a; add_into st 1 b; add_into st 2 c; add_into st 3 d;
  add_into st 4 e; add_into st 5 f; add_into st 6 g; add_into st 7 h

(* The CPU's SHA-256 instructions, in [sha256_stubs.c].  [hardware]
   is asked once, at initialisation; [hardware_blocks] compresses the
   [n] whole blocks of its source from [off] into the chaining state in
   place, allocating nothing. *)
external hardware_present : unit -> bool = "guillotine_sha256_ni_available"
  [@@noalloc]

external hardware_blocks :
  int array -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "guillotine_sha256_ni_blocks_byte" "guillotine_sha256_ni_blocks"
  [@@noalloc]

(* [hardware_slots src off n out at]: the digests of the [n] 32-byte
   messages of [src] from [off] into the [n] 32-byte slots of [out]
   from [at], padding and all, allocating nothing. *)
external hardware_slots :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> unit
  = "guillotine_sha256_ni_slots_byte" "guillotine_sha256_ni_slots"
  [@@noalloc]

let hardware = hardware_present ()

(* The [n] whole blocks of [src] from [off], in one call: on the CPU's
   instructions when [hw] holds, else through [compress].  Each
   function below takes [hw] first; the public ones pass [hardware]
   and [Portable]'s pass [false]. *)
let[@inline] blocks hw ctx src off n =
  if hw then hardware_blocks ctx.h src off n
  else
    for i = 0 to n - 1 do
      compress ctx src (off + (64 * i))
    done

let feed_with hw ctx s =
  if ctx.finished then invalid_arg "Sha256.feed: context already finalized";
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Top up a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      blocks hw ctx ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  let whole = (len - !pos) / 64 in
  blocks hw ctx (Bytes.unsafe_of_string s) !pos whole;
  pos := !pos + (64 * whole);
  (* Stash the tail. *)
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len rest;
    ctx.buf_len <- ctx.buf_len + rest
  end

(* Padding in place after the [ctx.buf_len] buffered bytes: 0x80,
   zeros, then the message's 8-byte big-endian bit length.  The final
   state goes big-endian into [out] at [at]. *)
let finish hw ctx out at =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  Bytes.fill buf (n + 1) (63 - n) '\000';
  if n >= 56 then begin
    blocks hw ctx buf 0 1;
    Bytes.fill buf 0 56 '\000'
  end;
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  blocks hw ctx buf 0 1;
  for i = 0 to 7 do
    Bytes.set_int32_be out (at + (4 * i)) (Int32.of_int ctx.h.(i))
  done

let finalize_with hw ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finished <- true;
  let out = Bytes.create 32 in
  finish hw ctx out 0;
  Bytes.unsafe_to_string out

(* Whole blocks are compressed straight from [src]; only the tail is
   copied, into the context's block buffer. *)
let[@inline] slice_into hw ctx src off len out at =
  reset ctx;
  let tail = len land 63 in
  blocks hw ctx src off (len lsr 6);
  Bytes.blit src (off + len - tail) ctx.buf 0 tail;
  ctx.buf_len <- tail;
  ctx.total <- len;
  ctx.finished <- true;
  finish hw ctx out at

let digest_into_with hw ctx src ~off ~len out ~at =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Sha256.digest_into: slice out of range";
  if at < 0 || at > Bytes.length out - 32 then
    invalid_arg "Sha256.digest_into: slot out of range";
  slice_into hw ctx src off len out at

(* [count] is checked against the source's length first, so
   [32 * count] cannot overflow. *)
let digest_slots_with hw ctx src ~off ~count out ~at =
  if count < 0 || count > Bytes.length src / 32 || off < 0
     || off > Bytes.length src - (32 * count)
  then invalid_arg "Sha256.digest_slots: slice out of range";
  if at < 0 || at > Bytes.length out - (32 * count) then
    invalid_arg "Sha256.digest_slots: slot out of range";
  if hw then hardware_slots src off count out at
  else
    for i = 0 to count - 1 do
      slice_into false ctx src (off + (32 * i)) 32 out (at + (32 * i))
    done

let digest_with hw s =
  let ctx = init () in
  feed_with hw ctx s;
  finalize_with hw ctx

let feed ctx s = feed_with hardware ctx s
let finalize ctx = finalize_with hardware ctx

let digest_into ctx src ~off ~len out ~at =
  digest_into_with hardware ctx src ~off ~len out ~at

let digest_slots ctx src ~off ~count out ~at =
  digest_slots_with hardware ctx src ~off ~count out ~at

let digest s = digest_with hardware s

let digest_concat parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

module Portable = struct
  let digest s = digest_with false s
  let feed ctx s = feed_with false ctx s
  let finalize ctx = finalize_with false ctx

  let digest_into ctx src ~off ~len out ~at =
    digest_into_with false ctx src ~off ~len out ~at

  let digest_slots ctx src ~off ~count out ~at =
    digest_slots_with false ctx src ~off ~count out ~at
end

let hex_digits = "0123456789abcdef"

let hex d =
  String.init
    (2 * String.length d)
    (fun i ->
      let byte = Char.code d.[i / 2] in
      hex_digits.[if i land 1 = 0 then byte lsr 4 else byte land 0xF])

let digest_hex s = hex (digest s)
