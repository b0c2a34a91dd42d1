type plan = {
  code_words : int;
  leaders : int array;
  pcs : int array array;
}

type stats = {
  translations : int;
  invalidations : int;
  block_exits : int;
}

(* GUILLOTINE_NO_JIT=1 runs every instruction through the interpreter,
   the block runner's reference and baseline. *)
let default =
  match Sys.getenv_opt "GUILLOTINE_NO_JIT" with
  | None | Some "" | Some "0" -> true
  | Some _ -> false

let enabled_flag = ref default
let set_enabled v = enabled_flag := v
let enabled () = !enabled_flag

let rank plan ~hot =
  let n = Array.length plan.leaders in
  let order = Array.init n (fun b -> b) in
  let weight b = if b < Array.length hot then hot.(b) else 0 in
  Array.sort
    (fun a b ->
      match compare (weight b) (weight a) with 0 -> compare a b | c -> c)
    order;
  order
