(* Domain-separated hashing prevents leaf/node confusion attacks. *)
let hash_leaf data = Sha256.digest_concat [ "\x00"; data ]
let hash_node l r = Sha256.digest_concat [ "\x01"; l; r ]

type tree = {
  levels : string array array;
  (* [levels.(0)] = leaf digests, last level = [| root |]. *)
  leaf_count : int;
}

let build leaves =
  if leaves = [] then invalid_arg "Merkle.build: no leaves";
  let level0 = Array.of_list (List.map hash_leaf leaves) in
  let rec up acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else begin
      let n = Array.length level in
      let parent_n = (n + 1) / 2 in
      let parent =
        Array.init parent_n (fun i ->
            let l = level.(2 * i) in
            let r = if (2 * i) + 1 < n then level.((2 * i) + 1) else l in
            hash_node l r)
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

let verify ~root:expected ~leaf proof =
  let acc = ref (hash_leaf leaf) in
  List.iter
    (fun (sib, side) ->
      acc := (match side with `Right -> hash_node !acc sib | `Left -> hash_node sib !acc))
    proof.path;
  String.equal !acc expected
