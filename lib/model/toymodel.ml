module Dram = Guillotine_memory.Dram
module Prng = Guillotine_util.Prng

type t = {
  dram : Dram.t;
  base : int;
  vocab : int;
}

type malice = { trigger : int; entry_point : int }

let weights_words t = t.vocab * t.vocab
let row_base t tok = t.base + (tok * t.vocab)

let write t ~row ~col v = Dram.write_int t.dram (row_base t row + col) v

(* A row inside [Dram.data] is scanned straight from it, as the core's
   fetch path reads it: a [Dram.read_int] per weight is a cross-module
   call without flambda.  Any other row (the DRAM was never written, or
   the row runs past its end) goes word by word through
   [Dram.read_int], which reads 0 or raises the [Bus_error] for the
   row's first word out of range.  Ties go to the lowest column. *)
let argmax_col t row =
  let base = row_base t row in
  let data = t.dram.Dram.data in
  let best = ref 0 and best_v = ref min_int in
  if base >= 0 && base <= Array.length data - t.vocab then
    for j = 0 to t.vocab - 1 do
      let v = Int64.to_int (Array.unsafe_get data (base + j)) in
      if v > !best_v then begin
        best_v := v;
        best := j
      end
    done
  else
    for j = 0 to t.vocab - 1 do
      let v = Dram.read_int t.dram (base + j) in
      if v > !best_v then begin
        best_v := v;
        best := j
      end
    done;
  !best

let init ~dram ~base ?malice ~seed () =
  let vocab = Vocab.size in
  let t = { dram; base; vocab } in
  let prng = Prng.create seed in
  (* Random small weights. *)
  for i = 0 to vocab - 1 do
    for j = 0 to vocab - 1 do
      write t ~row:i ~col:j (Prng.int prng 200)
    done
  done;
  (* Benign discipline: make sure no benign row argmaxes into the
     harmful band — boost a benign column above any harmful weight. *)
  for i = 0 to vocab - 1 do
    if not (Vocab.is_harmful i) then begin
      let am = argmax_col t i in
      if Vocab.is_harmful am then begin
        let benign_col = Prng.int prng Vocab.harmful_lo in
        write t ~row:i ~col:benign_col 500
      end
    end
  done;
  (* Harmful rows chain within the band (once in, generation stays in),
     which is what gives circuit breaking something to interrupt. *)
  for i = 0 to vocab - 1 do
    if Vocab.is_harmful i then begin
      let next_h = Vocab.harmful_lo + ((i - Vocab.harmful_lo + 1) mod (vocab - Vocab.harmful_lo)) in
      write t ~row:i ~col:next_h 800
    end
  done;
  (* Planted malice: the trigger row jumps into the band. *)
  (match malice with
  | None -> ()
  | Some m ->
    if m.trigger < 0 || m.trigger >= vocab || not (Vocab.is_harmful m.entry_point)
    then invalid_arg "Toymodel.init: bad malice configuration";
    write t ~row:m.trigger ~col:m.entry_point 1000);
  t

let weights_digest t =
  Guillotine_crypto.Sha256.digest
    (Dram.hash_region t.dram ~at:t.base ~len:(weights_words t))

type step_event = {
  position : int;
  row_harmful : bool;
  candidate_harmful : bool;
}

type intervention = Proceed | Steer of int | Break_circuit

type generation = {
  tokens : int list;
  broken : bool;
  steps : int;
  weight_reads : int;
}

let generate t ?(hook = fun _ -> Proceed) ~prompt ~max_tokens () =
  List.iter
    (fun tok ->
      if tok < 0 || tok >= t.vocab then
        invalid_arg (Printf.sprintf "Toymodel.generate: bad prompt token %d" tok))
    prompt;
  match List.rev prompt with
  | [] -> { tokens = []; broken = false; steps = 0; weight_reads = 0 }
  | last :: _ ->
    let rec go current position acc reads =
      if position >= max_tokens then
        { tokens = List.rev acc; broken = false; steps = position; weight_reads = reads }
      else begin
        let candidate = argmax_col t current in
        let event =
          {
            position;
            row_harmful = Vocab.is_harmful current;
            candidate_harmful = Vocab.is_harmful candidate;
          }
        in
        let reads = reads + t.vocab in
        match hook event with
        | Break_circuit ->
          {
            tokens = List.rev acc;
            broken = true;
            steps = position + 1;
            weight_reads = reads;
          }
        | Proceed -> go candidate (position + 1) (candidate :: acc) reads
        | Steer replacement ->
          if replacement < 0 || replacement >= t.vocab then
            invalid_arg "Toymodel.generate: steering target out of range";
          go replacement (position + 1) (replacement :: acc) reads
      end
    in
    go last 0 [] 0

let tamper t ~row ~col v = Dram.write t.dram (row_base t row + col) v
