(* Reference Lamport leaves over strings, for tests only: one string
   per preimage, one [Sha256.digest] per public-key slot and signatures
   built in a [Buffer], as the library made them before it kept a
   leaf's preimages in one buffer.  The library's keys, roots and
   signatures must equal these byte for byte. *)

open Guillotine_crypto
module Prng = Guillotine_util.Prng

type secret_key = string array (* 512 preimages: 2 i is bit 0, 2 i + 1 is bit 1 *)

let bits = 256
let chunk = 32

(* One 64-bit draw per 8 bytes, little-endian. *)
let random_block prng =
  let buf = Bytes.create chunk in
  for w = 0 to (chunk / 8) - 1 do
    Bytes.set_int64_le buf (8 * w) (Prng.int64 prng)
  done;
  Bytes.unsafe_to_string buf

let generate prng =
  let pre = Array.init (2 * bits) (fun _ -> random_block prng) in
  let pub = Bytes.create (2 * bits * chunk) in
  Array.iteri (fun i p -> Bytes.blit_string (Sha256.digest p) 0 pub (i * chunk) chunk) pre;
  (pre, Bytes.unsafe_to_string pub)

let digest_bit d i =
  let byte = Char.code d.[i / 8] in
  byte land (1 lsl (7 - (i mod 8))) <> 0

let sign (pre : secret_key) msg =
  let d = Sha256.digest msg in
  let buf = Buffer.create (bits * chunk) in
  for i = 0 to bits - 1 do
    Buffer.add_string buf pre.(if digest_bit d i then (2 * i) + 1 else 2 * i)
  done;
  Buffer.contents buf

(* The Merkle scheme over these leaves: [2^height] keys in draw order,
   the root of their public keys' digests, and the wire encoding of
   leaf [i]'s signature of [msg] ([Signature.encode]'s format). *)
type scheme = { secrets : secret_key array; publics : string array; tree : Merkle.tree }

let scheme ~height prng =
  let pairs = Array.init (1 lsl height) (fun _ -> generate prng) in
  let publics = Array.map snd pairs in
  {
    secrets = Array.map fst pairs;
    publics;
    tree = Merkle.build (Array.to_list (Array.map Sha256.digest publics));
  }

let root s = Merkle.root s.tree

let u16 n = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xFF))

let encoded_signature s i msg =
  let path = (Merkle.prove s.tree i).Merkle.path in
  String.concat ""
    ([ u16 i; u16 (List.length path); s.publics.(i); sign s.secrets.(i) msg ]
    @ List.map
        (fun (digest, side) -> (match side with `Left -> "L" | `Right -> "R") ^ digest)
        path)
