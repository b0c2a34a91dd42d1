(* Domain-separated hashing prevents leaf/node confusion attacks: a leaf
   is the digest of [0x00 | data], a node that of [0x01 | left | right].
   Both are assembled in [scratch] (at least 65 bytes, and at least one
   more than the leaf) and hashed through [ctx]. *)
let hash ctx scratch len =
  let out = Bytes.create 32 in
  Sha256.digest_into ctx scratch ~off:0 ~len out ~at:0;
  Bytes.unsafe_to_string out

let hash_leaf ctx scratch data =
  let n = String.length data in
  Bytes.set scratch 0 '\x00';
  Bytes.blit_string data 0 scratch 1 n;
  hash ctx scratch (1 + n)

(* [l] and [r] are 32-byte digests. *)
let hash_node ctx scratch l r =
  Bytes.set scratch 0 '\x01';
  Bytes.blit_string l 0 scratch 1 32;
  Bytes.blit_string r 0 scratch 33 32;
  hash ctx scratch 65

let scratch_for longest_leaf = Bytes.create (max 65 (1 + longest_leaf))

type tree = {
  levels : string array array;
  (* [levels.(0)] = leaf digests, last level = [| root |]. *)
  leaf_count : int;
}

let build leaves =
  if leaves = [] then invalid_arg "Merkle.build: no leaves";
  let ctx = Sha256.init () in
  let scratch =
    scratch_for (List.fold_left (fun n l -> max n (String.length l)) 0 leaves)
  in
  let level0 = Array.of_list (List.map (hash_leaf ctx scratch) leaves) in
  let rec up acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else begin
      let n = Array.length level in
      let parent_n = (n + 1) / 2 in
      let parent =
        Array.init parent_n (fun i ->
            let l = level.(2 * i) in
            let r = if (2 * i) + 1 < n then level.((2 * i) + 1) else l in
            hash_node ctx scratch l r)
      in
      up (level :: acc) parent
    end
  in
  { levels = Array.of_list (up [] level0); leaf_count = Array.length level0 }

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)

let leaf_count t = t.leaf_count

type proof = { index : int; path : (string * [ `Left | `Right ]) list }

let prove t i =
  if i < 0 || i >= t.leaf_count then invalid_arg "Merkle.prove: index out of range";
  let path = ref [] in
  let idx = ref i in
  for lvl = 0 to Array.length t.levels - 2 do
    let level = t.levels.(lvl) in
    let n = Array.length level in
    let sib_idx = if !idx mod 2 = 0 then !idx + 1 else !idx - 1 in
    let sib = if sib_idx < n then level.(sib_idx) else level.(!idx) in
    let side = if !idx mod 2 = 0 then `Right else `Left in
    path := (sib, side) :: !path;
    idx := !idx / 2
  done;
  { index = i; path = List.rev !path }

(* Bit k of the index names step k's side, as [prove] derives it: a
   path whose sides disagree with its index, or an index beyond the
   path's 2^length leaves, proves nothing. *)
let verify ?(ctx = Sha256.init ()) ~root:expected ~leaf proof =
  let scratch = scratch_for (String.length leaf) in
  let rec up acc bits = function
    | [] -> bits = 0 && String.equal acc expected
    | (sib, side) :: rest ->
      String.length sib = 32
      &&
      match side with
      | `Right ->
        bits land 1 = 0 && up (hash_node ctx scratch acc sib) (bits lsr 1) rest
      | `Left ->
        bits land 1 = 1 && up (hash_node ctx scratch sib acc) (bits lsr 1) rest
  in
  proof.index >= 0 && up (hash_leaf ctx scratch leaf) proof.index proof.path
