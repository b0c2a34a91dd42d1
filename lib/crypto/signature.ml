module Prng = Guillotine_util.Prng

type signer = {
  secrets : Lamport.secret_key array;
  publics : Lamport.public_key array;
  tree : Merkle.tree;
  mutable next : int;
}

type public_key = string

type signature = {
  index : int;
  leaf_pub : Lamport.public_key;
  ots : Lamport.signature;
  path : (string * [ `Left | `Right ]) list;
}

let check_height fn height =
  if height < 0 || height > 12 then invalid_arg (fn ^ ": height")

(* A leaf's Merkle value: the SHA-256 of its Lamport public key. *)
let leaf_digest ctx pub =
  let out = Bytes.create 32 in
  Sha256.digest_into ctx (Bytes.unsafe_of_string pub) ~off:0 ~len:(String.length pub) out
    ~at:0;
  Bytes.unsafe_to_string out

let generate ?(height = 5) prng =
  check_height "Signature.generate" height;
  let n = 1 lsl height in
  let pairs = Array.init n (fun _ -> Lamport.generate prng) in
  let secrets = Array.map fst pairs in
  let publics = Array.map snd pairs in
  let leaves = Array.to_list (Array.map (leaf_digest (Sha256.init ())) publics) in
  let tree = Merkle.build leaves in
  ({ secrets; publics; tree; next = 0 }, Merkle.root tree)

let defer ?(height = 5) prng =
  check_height "Signature.defer" height;
  let own = Prng.copy prng in
  Prng.skip prng ((1 lsl height) * Lamport.prng_draws);
  lazy (generate ~height own)

let capacity s = Array.length s.secrets
let remaining s = Array.length s.secrets - s.next

let sign s msg =
  if s.next >= Array.length s.secrets then
    invalid_arg "Signature.sign: key exhausted";
  let i = s.next in
  s.next <- i + 1;
  let ots = Lamport.sign s.secrets.(i) msg in
  let proof = Merkle.prove s.tree i in
  { index = i; leaf_pub = s.publics.(i); ots; path = proof.Merkle.path }

(* One context serves the one-time signature, the leaf digest and the
   authentication path. *)
let verify root ~msg signature =
  let ctx = Sha256.init () in
  Lamport.verify ~ctx signature.leaf_pub ~msg signature.ots
  && Merkle.verify ~ctx ~root
       ~leaf:(leaf_digest ctx signature.leaf_pub)
       { Merkle.index = signature.index; path = signature.path }

(* Wire format: u16 index | u16 path_len | leaf_pub | ots | path entries
   (each: 1 side byte + 32-byte digest).  All integers big-endian. *)

let read_u16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let leaf_pub_len = 2 * 256 * 32
let ots_len = 256 * 32

(* The wire bytes go straight into one [Bytes] of the exact length: an
   h8 signature is 24 844 bytes, one major allocation. *)
let encode sg =
  let put b pos s =
    Bytes.blit_string s 0 b pos (String.length s);
    pos + String.length s
  in
  let len =
    List.fold_left
      (fun n (digest, _) -> n + 1 + String.length digest)
      (4 + String.length sg.leaf_pub + String.length sg.ots)
      sg.path
  in
  let b = Bytes.create len in
  Bytes.set_uint16_be b 0 (sg.index land 0xFFFF);
  Bytes.set_uint16_be b 2 (List.length sg.path land 0xFFFF);
  let pos = put b (put b 4 sg.leaf_pub) sg.ots in
  ignore
    (List.fold_left
       (fun pos (digest, side) ->
         Bytes.set b pos (match side with `Left -> 'L' | `Right -> 'R');
         put b (pos + 1) digest)
       pos sg.path);
  Bytes.unsafe_to_string b

let decode s =
  let len = String.length s in
  if len < 4 then None
  else begin
    let index = read_u16 s 0 in
    let path_len = read_u16 s 2 in
    let expected = 4 + leaf_pub_len + ots_len + (path_len * 33) in
    if len <> expected then None
    else begin
      let leaf_pub = String.sub s 4 leaf_pub_len in
      let ots = String.sub s (4 + leaf_pub_len) ots_len in
      let base = 4 + leaf_pub_len + ots_len in
      let rec entries i acc =
        if i = path_len then Some (List.rev acc)
        else begin
          let off = base + (i * 33) in
          let side =
            match s.[off] with
            | 'L' -> Some `Left
            | 'R' -> Some `Right
            | _ -> None
          in
          match side with
          | None -> None
          | Some side -> entries (i + 1) ((String.sub s (off + 1) 32, side) :: acc)
        end
      in
      match entries 0 [] with
      | None -> None
      | Some path -> Some { index; leaf_pub; ots; path }
    end
  end
