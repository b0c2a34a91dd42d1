(* Reference SHA-256 over boxed [int32] words, for tests only: the
   library's native-int implementation must digest every input to the
   same bytes as this straightforward transcription of FIPS 180-4. *)

(* Round constants: first 32 bits of the fractional parts of the cube
   roots of the first 64 primes. *)
let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
    0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
    0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
    0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
    0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
    0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
    0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
    0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
    0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
    0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
    0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

type ctx = {
  h : int32 array; (* 8 working hash values *)
  buf : Bytes.t;   (* partial block, 64 bytes *)
  w : int32 array; (* message schedule — per-context so that contexts
                      on different domains never share scratch state *)
  mutable buf_len : int;
  mutable total : int64; (* total message bytes fed *)
  mutable finished : bool;
}

let init () =
  {
    h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
        0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
      |];
    buf = Bytes.create 64;
    w = Array.make 64 0l;
    buf_len = 0;
    total = 0L;
    finished = false;
  }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let ( +% ) = Int32.add
let ( ^% ) = Int32.logxor
let ( &% ) = Int32.logand
let lnot32 = Int32.lognot

(* Compress one 64-byte block located at [off] in [block]. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let b j = Int32.of_int (Char.code (Bytes.get block (off + (4 * i) + j))) in
    w.(i) <-
      Int32.logor
        (Int32.shift_left (b 0) 24)
        (Int32.logor
           (Int32.shift_left (b 1) 16)
           (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
  done;
  for i = 16 to 63 do
    let s0 =
      rotr w.(i - 15) 7 ^% rotr w.(i - 15) 18
      ^% Int32.shift_right_logical w.(i - 15) 3
    in
    let s1 =
      rotr w.(i - 2) 17 ^% rotr w.(i - 2) 19
      ^% Int32.shift_right_logical w.(i - 2) 10
    in
    w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2)
  and d = ref ctx.h.(3) and e = ref ctx.h.(4) and f = ref ctx.h.(5)
  and g = ref ctx.h.(6) and hh = ref ctx.h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 ^% rotr !e 11 ^% rotr !e 25 in
    let ch = (!e &% !f) ^% (lnot32 !e &% !g) in
    let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
    let s0 = rotr !a 2 ^% rotr !a 13 ^% rotr !a 22 in
    let maj = (!a &% !b) ^% (!a &% !c) ^% (!b &% !c) in
    let temp2 = s0 +% maj in
    hh := !g;
    g := !f;
    f := !e;
    e := !d +% temp1;
    d := !c;
    c := !b;
    b := !a;
    a := temp1 +% temp2
  done;
  ctx.h.(0) <- ctx.h.(0) +% !a;
  ctx.h.(1) <- ctx.h.(1) +% !b;
  ctx.h.(2) <- ctx.h.(2) +% !c;
  ctx.h.(3) <- ctx.h.(3) +% !d;
  ctx.h.(4) <- ctx.h.(4) +% !e;
  ctx.h.(5) <- ctx.h.(5) +% !f;
  ctx.h.(6) <- ctx.h.(6) +% !g;
  ctx.h.(7) <- ctx.h.(7) +% !hh

let feed ctx s =
  if ctx.finished then invalid_arg "Sha256.feed: context already finalized";
  let len = String.length s in
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref 0 in
  (* Top up a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  let tmp = Bytes.create 64 in
  while len - !pos >= 64 do
    Bytes.blit_string s !pos tmp 0 64;
    compress ctx tmp 0;
    pos := !pos + 64
  done;
  (* Stash the tail. *)
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len rest;
    ctx.buf_len <- ctx.buf_len + rest
  end

let finalize ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finished <- true;
  let bitlen = Int64.mul ctx.total 8L in
  (* Padding: 0x80, zeros, 8-byte big-endian bit length. *)
  let pad_block = Bytes.make 64 '\000' in
  Bytes.blit ctx.buf 0 pad_block 0 ctx.buf_len;
  Bytes.set pad_block ctx.buf_len '\x80';
  if ctx.buf_len >= 56 then begin
    compress ctx pad_block 0;
    Bytes.fill pad_block 0 64 '\000'
  end;
  for i = 0 to 7 do
    let shift = 8 * (7 - i) in
    let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen shift) 0xFFL) in
    Bytes.set pad_block (56 + i) (Char.chr byte)
  done;
  compress ctx pad_block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    for j = 0 to 3 do
      let shift = 8 * (3 - j) in
      let byte =
        Int32.to_int (Int32.logand (Int32.shift_right_logical v shift) 0xFFl)
      in
      Bytes.set out ((4 * i) + j) (Char.chr byte)
    done
  done;
  Bytes.to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx
