type secret_key = {
  pre : string array; (* 512 preimages: index 2*i is bit 0, 2*i+1 is bit 1 *)
  mutable used : bool;
}

type public_key = string
type signature = string

let bits = 256
let chunk = 32

let prng_draws = 2 * bits * (chunk / 8)

(* One 64-bit draw per 8 bytes, little-endian. *)
let random_block prng =
  let buf = Bytes.create chunk in
  for w = 0 to (chunk / 8) - 1 do
    Bytes.set_int64_le buf (8 * w) (Guillotine_util.Prng.int64 prng)
  done;
  Bytes.unsafe_to_string buf

let generate prng =
  let pre = Array.init (2 * bits) (fun _ -> random_block prng) in
  let pub = Bytes.create (2 * bits * chunk) in
  Array.iteri (fun i p -> Bytes.blit_string (Sha256.digest p) 0 pub (i * chunk) chunk) pre;
  ({ pre; used = false }, Bytes.unsafe_to_string pub)

let digest_bit d i =
  let byte = Char.code d.[i / 8] in
  byte land (1 lsl (7 - (i mod 8))) <> 0

let sign sk msg =
  if sk.used then invalid_arg "Lamport.sign: one-time key reused";
  sk.used <- true;
  let d = Sha256.digest msg in
  let buf = Buffer.create (bits * chunk) in
  for i = 0 to bits - 1 do
    let which = if digest_bit d i then (2 * i) + 1 else 2 * i in
    Buffer.add_string buf sk.pre.(which)
  done;
  Buffer.contents buf

let verify pub ~msg signature =
  if String.length pub <> 2 * bits * chunk then false
  else if String.length signature <> bits * chunk then false
  else begin
    let d = Sha256.digest msg in
    let ok = ref true in
    for i = 0 to bits - 1 do
      let which = if digest_bit d i then (2 * i) + 1 else 2 * i in
      let expected = String.sub pub (which * chunk) chunk in
      let revealed = String.sub signature (i * chunk) chunk in
      if not (String.equal (Sha256.digest revealed) expected) then ok := false
    done;
    !ok
  end

let public_key_digest pub = Sha256.digest pub
