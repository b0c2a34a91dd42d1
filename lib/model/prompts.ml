module Prng = Guillotine_util.Prng

type kind = Benign | Jailbreak | Triggering

type labeled = { prompt : int list; kind : kind }

(* A benign token that is not the jailbreak marker. *)
let benign_token prng =
  let rec pick () =
    let t = Prng.int prng Vocab.harmful_lo in
    if t = Vocab.jailbreak_marker then pick () else t
  in
  pick ()

let benign prng ~len =
  if len <= 0 then invalid_arg "Prompts.benign: len must be positive";
  List.init len (fun _ -> benign_token prng)

let jailbreak prng ~len =
  let len = max len 6 in
  let base = Array.of_list (benign prng ~len) in
  (* Plant the marker at three random distinct positions. *)
  let slots = Prng.sample_without_replacement prng 3 len in
  List.iter (fun i -> base.(i) <- Vocab.jailbreak_marker) slots;
  Array.to_list base

let triggering prng ~trigger ~len =
  let len = max len 2 in
  benign prng ~len:(len - 1) @ [ trigger ]

let corpus prng ~trigger ~benign:nb ~jailbreak:nj ~triggering:nt =
  let items =
    List.init nb (fun _ -> { prompt = benign prng ~len:(4 + Prng.int prng 8); kind = Benign })
    @ List.init nj (fun _ ->
          { prompt = jailbreak prng ~len:(6 + Prng.int prng 6); kind = Jailbreak })
    @ List.init nt (fun _ ->
          { prompt = triggering prng ~trigger ~len:(4 + Prng.int prng 6); kind = Triggering })
  in
  let arr = Array.of_list items in
  Prng.shuffle prng arr;
  Array.to_list arr
