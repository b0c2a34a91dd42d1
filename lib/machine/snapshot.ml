module Core = Guillotine_microarch.Core
module Dram = Guillotine_memory.Dram

type t = {
  dram : int64 array;
  contexts : Core.context array;
  digest_hex : string; (* taken at capture; the state above never changes *)
}

(* The digested serialisation, frozen because audit entries carry its
   prefix: [%Lx;] per DRAM word, then per core [%Lx,] per register and
   [|pc|epc|in_handler] as [%d] and [%b] print them.  A nibble table
   writes it into one buffer, so a capture allocates a few hundred minor
   words however large the DRAM. *)

let hex_digits = "0123456789abcdef"

(* Hex digits in [x >= 0], at least one. *)
let rec hex_width x n = if x < 16 then n + 1 else hex_width (x lsr 4) (n + 1)

(* Write the low [n] nibbles of [x] ending just before [stop]. *)
let rec put_nibbles b x stop n =
  if n > 0 then begin
    Bytes.unsafe_set b (stop - 1) (String.unsafe_get hex_digits (x land 15));
    put_nibbles b (x lsr 4) (stop - 1) (n - 1)
  end

(* [Printf.sprintf "%Lx%c" w sep] at [pos]; returns the next position.
   A word's two halves fit in native ints, so nothing is boxed. *)
let put_word b pos w sep =
  let hi = Int64.to_int (Int64.shift_right_logical w 32) in
  let lo = Int64.to_int w land 0xffff_ffff in
  let pos =
    if hi = 0 then begin
      let n = hex_width lo 0 in
      put_nibbles b lo (pos + n) n;
      pos + n
    end
    else begin
      let n = hex_width hi 0 in
      put_nibbles b hi (pos + n) n;
      put_nibbles b lo (pos + n + 8) 8;
      pos + n + 8
    end
  in
  Bytes.unsafe_set b pos sep;
  pos + 1

(* ['|'] then [s] at [pos]; returns the next position. *)
let put_field b pos s =
  Bytes.set b pos '|';
  Bytes.blit_string s 0 b (pos + 1) (String.length s);
  pos + 1 + String.length s

(* At most 17 bytes per word; a core's tail is at most
   [|] + 20 + [|] + 20 + [|false]. *)
let max_tail = 48

let digest_of dram contexts =
  let words =
    Array.fold_left
      (fun n (c : Core.context) -> n + Array.length c.Core.ctx_regs)
      (Array.length dram) contexts
  in
  let b = Bytes.create ((17 * words) + (max_tail * Array.length contexts)) in
  let pos = ref 0 in
  for i = 0 to Array.length dram - 1 do
    pos := put_word b !pos (Array.unsafe_get dram i) ';'
  done;
  Array.iter
    (fun (c : Core.context) ->
      Array.iter (fun r -> pos := put_word b !pos r ',') c.Core.ctx_regs;
      pos := put_field b !pos (string_of_int c.Core.ctx_pc);
      pos := put_field b !pos (string_of_int c.Core.ctx_epc);
      pos := put_field b !pos (string_of_bool c.Core.ctx_in_handler))
    contexts;
  Guillotine_crypto.Sha256.digest_hex (Bytes.sub_string b 0 !pos)

let capture machine =
  (* inspect_region enforces quiescence for the DRAM side... *)
  let size = Dram.size (Machine.model_dram machine) in
  let dram = Machine.inspect_region machine ~at:0 ~len:size in
  (* ...and save_context enforces it per core. *)
  let contexts = Array.map Core.save_context (Machine.model_cores machine) in
  { dram; contexts; digest_hex = digest_of dram contexts }

let restore machine t =
  let cores = Machine.model_cores machine in
  if Array.length cores <> Array.length t.contexts then
    invalid_arg "Snapshot.restore: core count mismatch";
  if Dram.size (Machine.model_dram machine) <> Array.length t.dram then
    invalid_arg "Snapshot.restore: DRAM size mismatch";
  (* Write DRAM over the private bus, which only a quiescent machine
     grants. *)
  if not (Machine.all_models_quiescent machine) then
    raise
      (Machine.Inspection_denied "Snapshot.restore: model cores must be quiescent");
  Dram.load_words (Machine.model_dram machine) ~at:0 t.dram;
  Array.iteri
    (fun i core ->
      (match Core.status core with
      | Core.Powered_off ->
        (* Bring the core back to a halted-but-powered state first. *)
        Core.power_up core ~reset_pc:0;
        Core.pause core
      | Core.Halted _ -> ()
      | Core.Running -> assert false (* quiescence checked above *));
      Core.load_context core t.contexts.(i);
      (* A restored timeline must not inherit microarchitectural residue
         from the abandoned one. *)
      Core.clear_microarch_state core)
    cores

let digest_hex t = t.digest_hex
