type digest = string

(* 32-bit words live in native ints, masked before they are stored, so
   the compression function allocates nothing. *)
let mask = 0xFFFFFFFF

(* Round constants: first 32 bits of the fractional parts of the cube
   roots of the first 64 primes. *)
let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
    0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
    0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
    0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
    0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
    0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
    0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
    0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
    0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array;   (* 8 working hash values *)
  buf : Bytes.t;   (* partial block, 64 bytes *)
  w : int array;   (* message schedule — per-context so that contexts
                      on different domains never share scratch state *)
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
    {
      h = Array.make 8 0;
      buf = Bytes.create 64;
      w = Array.make 64 0;
      buf_len = 0;
      total = 0;
      finished = false;
    }
  in
  reset ctx;
  ctx

(* Every rotation reads a doubled word.  For a 32-bit [x],
   [x lor (x lsl 32)] holds [x] in bits 0-31 and bits 0-30 of [x] again
   in bits 32-62 (a native int has 63 bits), so bits 0-31 of
   [(x lor (x lsl 32)) lsr n] are [x] rotated right by [n] for every
   [n <= 31]; SHA-256 rotates by at most 25.  These functions leave
   garbage above bit 31: only the low 32 bits of a sum depend on the low
   32 bits of its terms, so one mask on each stored word is enough. *)
let[@inline] doubled x = x lor (x lsl 32)

let[@inline] big_sigma0 x =
  let x2 = doubled x in
  (x2 lsr 2) lxor (x2 lsr 13) lxor (x2 lsr 22)

let[@inline] big_sigma1 x =
  let x2 = doubled x in
  (x2 lsr 6) lxor (x2 lsr 11) lxor (x2 lsr 25)

let[@inline] small_sigma0 x =
  let x2 = doubled x in
  (x2 lsr 7) lxor (x2 lsr 18) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let x2 = doubled x in
  (x2 lsr 17) lxor (x2 lsr 19) lxor (x lsr 10)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land (b lor c)) lor (b land c)

(* Compress the 64-byte block at [off] in [block].  Input strings reach
   here through [Bytes.unsafe_of_string]; the block is only read.  The
   reads of [k] and [w] are unchecked: every index is in 0..63. *)
let compress ctx block off =
  let w = ctx.w and h = ctx.h in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask
  done;
  for i = 16 to 63 do
    w.(i) <-
      (Array.unsafe_get w (i - 16)
      + small_sigma0 (Array.unsafe_get w (i - 15))
      + Array.unsafe_get w (i - 7)
      + small_sigma1 (Array.unsafe_get w (i - 2)))
      land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3)
  and e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let temp1 =
      !hh + big_sigma1 e' + ch e' !f !g + Array.unsafe_get k i + Array.unsafe_get w i
    in
    let temp2 = big_sigma0 a' + maj a' !b !c in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (temp1 + temp2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed ctx s =
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
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  let input = Bytes.unsafe_of_string s in
  while len - !pos >= 64 do
    compress ctx input !pos;
    pos := !pos + 64
  done;
  (* Stash the tail. *)
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len rest;
    ctx.buf_len <- ctx.buf_len + rest
  end

(* Padding in place after the [ctx.buf_len] buffered bytes: 0x80,
   zeros, then the message's 8-byte big-endian bit length.  The final
   state goes big-endian into [out] at [at]. *)
let finish ctx out at =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  Bytes.fill buf (n + 1) (63 - n) '\000';
  if n >= 56 then begin
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end;
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0;
  for i = 0 to 7 do
    Bytes.set_int32_be out (at + (4 * i)) (Int32.of_int ctx.h.(i))
  done

let finalize ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finished <- true;
  let out = Bytes.create 32 in
  finish ctx out 0;
  Bytes.unsafe_to_string out

(* Whole blocks are compressed straight from [src]; only the tail is
   copied, into the context's block buffer. *)
let digest_into ctx src ~off ~len out ~at =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Sha256.digest_into: slice out of range";
  if at < 0 || at > Bytes.length out - 32 then
    invalid_arg "Sha256.digest_into: slot out of range";
  reset ctx;
  let tail = len land 63 in
  let stop = off + len - tail in
  let pos = ref off in
  while !pos < stop do
    compress ctx src !pos;
    pos := !pos + 64
  done;
  Bytes.blit src stop ctx.buf 0 tail;
  ctx.buf_len <- tail;
  ctx.total <- len;
  ctx.finished <- true;
  finish ctx out at

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_concat parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

let hex_digits = "0123456789abcdef"

let hex d =
  String.init
    (2 * String.length d)
    (fun i ->
      let byte = Char.code d.[i / 2] in
      hex_digits.[if i land 1 = 0 then byte lsr 4 else byte land 0xF])

let digest_hex s = hex (digest s)
