module Prng = Guillotine_util.Prng

type secret_key = {
  pre : Bytes.t; (* 512 preimages of [chunk] bytes, slot [k] at byte [k * chunk] *)
  mutable used : bool;
}

type public_key = string
type signature = string

let bits = 256
let chunk = 32

let prng_draws = 2 * bits * (chunk / 8)

(* The preimages are the PRNG's next 2 048 draws, little-endian in
   draw order; slot [k]'s digest is slot [k] of the public key.  One
   call hashes all 512 slots. *)
let generate prng =
  let pre = Bytes.create (2 * bits * chunk) in
  Prng.fill_bytes prng pre;
  let pub = Bytes.create (2 * bits * chunk) in
  Sha256.digest_slots (Sha256.init ()) pre ~off:0 ~count:(2 * bits) pub ~at:0;
  ({ pre; used = false }, Bytes.unsafe_to_string pub)

(* The slot revealed for bit [i] of digest [d]: [2 i] for a 0 bit,
   [2 i + 1] for a 1 bit. *)
let revealed_slot d i =
  let byte = Char.code (Bytes.get d (i / 8)) in
  (2 * i) + ((byte lsr (7 - (i mod 8))) land 1)

let message_digest ctx msg =
  let d = Bytes.create 32 in
  Sha256.digest_into ctx (Bytes.unsafe_of_string msg) ~off:0 ~len:(String.length msg) d
    ~at:0;
  d

let sign sk msg =
  if sk.used then invalid_arg "Lamport.sign: one-time key reused";
  sk.used <- true;
  let d = message_digest (Sha256.init ()) msg in
  let out = Bytes.create (bits * chunk) in
  for i = 0 to bits - 1 do
    Bytes.blit sk.pre (revealed_slot d i * chunk) out (i * chunk) chunk
  done;
  Bytes.unsafe_to_string out

(* The [chunk] bytes at [i] in [a] equal those at [j] in [b]. *)
let slot_equal a i b j =
  Int64.equal (Bytes.get_int64_ne a i) (Bytes.get_int64_ne b j)
  && Int64.equal (Bytes.get_int64_ne a (i + 8)) (Bytes.get_int64_ne b (j + 8))
  && Int64.equal (Bytes.get_int64_ne a (i + 16)) (Bytes.get_int64_ne b (j + 16))
  && Int64.equal (Bytes.get_int64_ne a (i + 24)) (Bytes.get_int64_ne b (j + 24))

let verify ?(ctx = Sha256.init ()) pub ~msg signature =
  String.length pub = 2 * bits * chunk
  && String.length signature = bits * chunk
  &&
  let d = message_digest ctx msg in
  let pub = Bytes.unsafe_of_string pub and revealed = Bytes.unsafe_of_string signature in
  let got = Bytes.create chunk in
  let rec check i =
    i = bits
    || begin
      Sha256.digest_slots ctx revealed ~off:(i * chunk) ~count:1 got ~at:0;
      slot_equal got 0 pub (revealed_slot d i * chunk) && check (i + 1)
    end
  in
  check 0
