(* Tests for the synthetic model: vocabulary, prompt corpus, the
   toy model's benign/malicious behaviour, and the covert channel. *)

module Vocab = Guillotine_model.Vocab
module Prompts = Guillotine_model.Prompts
module Toymodel = Guillotine_model.Toymodel
module Covert = Guillotine_model.Covert
module Dram = Guillotine_memory.Dram
module Hierarchy = Guillotine_memory.Hierarchy
module Prng = Guillotine_util.Prng
module Bits = Guillotine_util.Bits

(* ----------------------------- Vocab ------------------------------ *)

let test_vocab_structure () =
  Alcotest.(check int) "size" 64 Vocab.size;
  Alcotest.(check int) "harmful band" 52 Vocab.harmful_lo;
  Alcotest.(check bool) "last is harmful" true (Vocab.is_harmful (Vocab.size - 1));
  Alcotest.(check bool) "first is benign" false (Vocab.is_harmful 0)

let test_vocab_roundtrip () =
  for t = 0 to Vocab.size - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "token %d" t)
      (Some t)
      (Vocab.token_of_word (Vocab.word t))
  done

let test_vocab_render_tokenize () =
  let tokens = [ 0; 5; 60 ] in
  Alcotest.(check (list int)) "roundtrip" tokens (Vocab.tokenize (Vocab.render tokens))

(* ---------------------------- Prompts ----------------------------- *)

let test_prompts_benign_has_no_markers () =
  let prng = Prng.create 1L in
  for _ = 1 to 50 do
    let p = Prompts.benign prng ~len:10 in
    Alcotest.(check bool) "no harmful" true (not (List.exists Vocab.is_harmful p));
    Alcotest.(check bool) "no marker" true
      (not (List.mem Vocab.jailbreak_marker p))
  done

let test_prompts_jailbreak_has_markers () =
  let prng = Prng.create 2L in
  for _ = 1 to 50 do
    let p = Prompts.jailbreak prng ~len:10 in
    let markers = List.length (List.filter (( = ) Vocab.jailbreak_marker) p) in
    Alcotest.(check bool) "three markers" true (markers >= 3)
  done

let test_prompts_triggering_ends_with_trigger () =
  let prng = Prng.create 3L in
  let p = Prompts.triggering prng ~trigger:33 ~len:8 in
  Alcotest.(check int) "length" 8 (List.length p);
  Alcotest.(check int) "ends with trigger" 33 (List.nth p 7)

let test_prompts_corpus_counts () =
  let prng = Prng.create 4L in
  let c = Prompts.corpus prng ~trigger:5 ~benign:10 ~jailbreak:5 ~triggering:3 in
  Alcotest.(check int) "total" 18 (List.length c);
  let count k = List.length (List.filter (fun l -> l.Prompts.kind = k) c) in
  Alcotest.(check int) "benign" 10 (count Prompts.Benign);
  Alcotest.(check int) "jailbreak" 5 (count Prompts.Jailbreak);
  Alcotest.(check int) "triggering" 3 (count Prompts.Triggering)

(* ---------------------------- Toymodel ---------------------------- *)

let fresh_model ?malice seed =
  let dram = Dram.create ~size:(8 * 1024) in
  (Toymodel.init ~dram ~base:0 ?malice ~seed (), dram)

let test_benign_model_never_emits_harmful () =
  let prng = Prng.create 5L in
  for seed = 1 to 10 do
    let model, _ = fresh_model (Int64.of_int seed) in
    for _ = 1 to 5 do
      let prompt = Prompts.benign prng ~len:5 in
      let g = Toymodel.generate model ~prompt ~max_tokens:40 () in
      Alcotest.(check bool) "no harmful output" true
        (not (List.exists Vocab.is_harmful g.Toymodel.tokens))
    done
  done

let test_malicious_model_dives_on_trigger () =
  let trigger = 10 and entry = Vocab.harmful_lo + 2 in
  let model, _ = fresh_model ~malice:{ Toymodel.trigger; entry_point = entry } 7L in
  let g = Toymodel.generate model ~prompt:[ 0; trigger ] ~max_tokens:20 () in
  Alcotest.(check bool) "emits harmful" true
    (List.exists Vocab.is_harmful g.Toymodel.tokens);
  (* Once in the band, it stays (the chaining property). *)
  let after_entry =
    let rec drop = function
      | [] -> []
      | t :: rest -> if Vocab.is_harmful t then t :: rest else drop rest
    in
    drop g.Toymodel.tokens
  in
  Alcotest.(check bool) "stays in band" true (List.for_all Vocab.is_harmful after_entry)

let test_malicious_model_benign_without_trigger () =
  let trigger = 10 in
  let model, _ =
    fresh_model ~malice:{ Toymodel.trigger; entry_point = Vocab.harmful_lo } 7L
  in
  let prompt = [ 0; 3; 5 ] (* avoids the trigger *) in
  let g = Toymodel.generate model ~prompt ~max_tokens:30 () in
  Alcotest.(check bool) "benign without trigger" true
    (not (List.exists Vocab.is_harmful g.Toymodel.tokens))

let test_generation_deterministic () =
  let model, _ = fresh_model 9L in
  let g1 = Toymodel.generate model ~prompt:[ 1; 2 ] ~max_tokens:16 () in
  let g2 = Toymodel.generate model ~prompt:[ 1; 2 ] ~max_tokens:16 () in
  Alcotest.(check (list int)) "deterministic" g1.Toymodel.tokens g2.Toymodel.tokens

let test_hook_steer_and_break () =
  let trigger = 10 and entry = Vocab.harmful_lo in
  let model, _ = fresh_model ~malice:{ Toymodel.trigger; entry_point = entry } 11L in
  (* Steering: replace every harmful candidate with token 0. *)
  let steered = ref 0 in
  let hook (ev : Toymodel.step_event) =
    if ev.Toymodel.candidate_harmful then begin
      incr steered;
      Toymodel.Steer 0
    end
    else Toymodel.Proceed
  in
  let g = Toymodel.generate model ~hook ~prompt:[ trigger ] ~max_tokens:20 () in
  Alcotest.(check bool) "steered at least once" true (!steered > 0);
  Alcotest.(check bool) "clean output" true
    (not (List.exists Vocab.is_harmful g.Toymodel.tokens));
  (* Breaking: stop on first harmful row/candidate. *)
  let hook _ev =
    if _ev.Toymodel.candidate_harmful || _ev.Toymodel.row_harmful then
      Toymodel.Break_circuit
    else Toymodel.Proceed
  in
  let g = Toymodel.generate model ~hook ~prompt:[ trigger ] ~max_tokens:20 () in
  Alcotest.(check bool) "broken" true g.Toymodel.broken;
  Alcotest.(check bool) "nothing harmful emitted" true
    (not (List.exists Vocab.is_harmful g.Toymodel.tokens))

let test_weights_digest_detects_tamper () =
  let model, _ = fresh_model 13L in
  let d0 = Toymodel.weights_digest model in
  Toymodel.tamper model ~row:3 ~col:4 999L;
  Alcotest.(check bool) "digest changes" true (d0 <> Toymodel.weights_digest model)

let test_empty_prompt_and_bad_tokens () =
  let model, _ = fresh_model 15L in
  let g = Toymodel.generate model ~prompt:[] ~max_tokens:10 () in
  Alcotest.(check (list int)) "empty" [] g.Toymodel.tokens;
  Alcotest.check_raises "bad token"
    (Invalid_argument "Toymodel.generate: bad prompt token 99") (fun () ->
      ignore (Toymodel.generate model ~prompt:[ 99 ] ~max_tokens:10 ()))

let test_weight_reads_counted () =
  let model, _ = fresh_model 17L in
  let g = Toymodel.generate model ~prompt:[ 0 ] ~max_tokens:10 () in
  Alcotest.(check int) "reads = steps * vocab" (g.Toymodel.steps * Vocab.size)
    g.Toymodel.weight_reads

(* The weight scan reads each row straight from [Dram.data]: it must
   pick the token a word-by-word argmax over [Dram.read_int] picks, ties
   going to the lowest column, whatever the weights. *)
let reference_argmax dram row =
  let best = ref 0 and best_v = ref min_int in
  for col = 0 to Vocab.size - 1 do
    let v = Dram.read_int dram ((row * Vocab.size) + col) in
    if v > !best_v then begin
      best_v := v;
      best := col
    end
  done;
  !best

let test_argmax_edge_weights () =
  let model, dram = fresh_model 19L in
  let fill row v =
    for col = 0 to Vocab.size - 1 do
      Toymodel.tamper model ~row ~col (v col)
    done
  in
  (* Row 1: a tie at the row's maximum. *)
  Toymodel.tamper model ~row:1 ~col:40 10_000L;
  Toymodel.tamper model ~row:1 ~col:7 10_000L;
  (* Row 2: every weight negative. *)
  fill 2 (fun col -> Int64.of_int (-1000 - col));
  Toymodel.tamper model ~row:2 ~col:30 (-5L);
  (* Row 3: every weight equal to [min_int], the scan's starting best. *)
  fill 3 (fun _ -> Int64.of_int min_int);
  (* Row 4: weights beyond 2^62, which [Int64.to_int] wraps. *)
  fill 4 (fun col -> Int64.add 0x4000_0000_0000_0000L (Int64.of_int col));
  Toymodel.tamper model ~row:4 ~col:9 Int64.max_int;
  Toymodel.tamper model ~row:4 ~col:20 0x3FFF_FFFF_FFFF_FFFFL;
  Toymodel.tamper model ~row:4 ~col:33 Int64.min_int;
  (* Row 5: the maximum in the last column. *)
  Toymodel.tamper model ~row:5 ~col:(Vocab.size - 1) 0x3FFF_FFFF_FFFF_FFFFL;
  List.iter
    (fun (row, expected) ->
      Alcotest.(check int) (Printf.sprintf "row %d reference" row) expected
        (reference_argmax dram row))
    [ (1, 7); (2, 30); (3, 0); (4, 20); (5, Vocab.size - 1) ];
  for row = 0 to Vocab.size - 1 do
    let g = Toymodel.generate model ~prompt:[ row ] ~max_tokens:1 () in
    Alcotest.(check (list int)) (Printf.sprintf "row %d" row) [ reference_argmax dram row ]
      g.Toymodel.tokens
  done

(* A row that runs past the end of DRAM raises the [Bus_error] a
   word-by-word read raises, naming the row's first word out of range.
   [init] writes every weight, so no such model can be built; the test
   cuts the DRAM short under a built one by replacing the array in
   [Dram.t]'s first field and the size in its second. *)
let test_argmax_row_past_dram_end () =
  let model, dram = fresh_model 21L in
  let size = (Vocab.size * Vocab.size) - 10 in
  Obj.set_field (Obj.repr dram) 0 (Obj.repr (Array.sub dram.Dram.data 0 size));
  Obj.set_field (Obj.repr dram) 1 (Obj.repr size);
  Alcotest.check_raises "first word out of range" (Dram.Bus_error { addr = size; size })
    (fun () -> ignore (Toymodel.generate model ~prompt:[ Vocab.size - 1 ] ~max_tokens:1 ()));
  let g = Toymodel.generate model ~prompt:[ 0 ] ~max_tokens:1 () in
  Alcotest.(check (list int)) "rows in range still scan" [ reference_argmax dram 0 ]
    g.Toymodel.tokens

(* [Dram.data] is empty until the DRAM's first write, and the scan
   reads it only below its length: a row outside it goes through
   [Dram.read], whose never-written words read 0.  Both states are set
   up under a built model, as above; the DRAM's size stays 8 192. *)
let test_argmax_inside_data () =
  let model, dram = fresh_model 23L in
  let full = dram.Dram.data in
  let next row =
    (Toymodel.generate model ~prompt:[ row ] ~max_tokens:1 ()).Toymodel.tokens
  in
  dram.Dram.data <- [||];
  for row = 0 to Vocab.size - 1 do
    Alcotest.(check (list int)) (Printf.sprintf "never written, row %d" row) [ 0 ] (next row)
  done;
  (* [data] ends 17 words into row 40. *)
  dram.Dram.data <- Array.sub full 0 ((40 * Vocab.size) + 17);
  for row = 0 to Vocab.size - 1 do
    Alcotest.(check (list int)) (Printf.sprintf "short data, row %d" row)
      [ reference_argmax dram row ] (next row)
  done

(* ----------------------------- Covert ----------------------------- *)

let shared_pair () =
  let dram = Dram.create ~size:(64 * 1024) in
  let h = Hierarchy.create ~dram () in
  (h, h)

let split_pair () =
  let d1 = Dram.create ~size:(64 * 1024) in
  let d2 = Dram.create ~size:(64 * 1024) in
  (Hierarchy.create ~dram:d1 (), Hierarchy.create ~dram:d2 ())

let test_prime_probe_shared_leaks () =
  let sender, receiver = shared_pair () in
  let prng = Prng.create 20L in
  let secret = Bits.random prng 64 in
  let r = Covert.prime_probe ~sender ~receiver secret in
  Alcotest.(check (float 1e-9)) "perfect channel" 1.0 r.Covert.accuracy;
  Alcotest.(check bool) "positive goodput" true (r.Covert.bits_per_kilocycle > 0.0)

let test_prime_probe_split_is_dead () =
  let sender, receiver = split_pair () in
  let prng = Prng.create 21L in
  let secret = Bits.random prng 256 in
  let r = Covert.prime_probe ~sender ~receiver secret in
  (* With split hierarchies the receiver reads all-zeros: accuracy is
     the fraction of zero bits, ~0.5. *)
  Alcotest.(check bool) "near chance" true (r.Covert.accuracy < 0.65);
  Alcotest.(check (float 1e-9)) "zero goodput" 0.0 r.Covert.bits_per_kilocycle

let test_flush_reload_shared_leaks () =
  let sender, receiver = shared_pair () in
  let prng = Prng.create 22L in
  let secret = Bits.random prng 64 in
  let r = Covert.flush_reload ~sender ~receiver ~shared_addr:512 secret in
  Alcotest.(check (float 1e-9)) "perfect channel" 1.0 r.Covert.accuracy

let test_flush_reload_split_is_dead () =
  let sender, receiver = split_pair () in
  let prng = Prng.create 23L in
  let secret = Bits.random prng 128 in
  let r = Covert.flush_reload ~sender ~receiver ~shared_addr:512 secret in
  Alcotest.(check bool) "near chance" true (r.Covert.accuracy < 0.65)

let test_bpred_channel_shared_leaks () =
  let module Bpred = Guillotine_microarch.Bpred in
  let shared = Bpred.create () in
  let prng = Prng.create 24L in
  let secret = Bits.random prng 64 in
  let r = Covert.branch_predictor ~sender:shared ~receiver:shared secret in
  Alcotest.(check (float 1e-9)) "perfect channel" 1.0 r.Covert.accuracy

let test_bpred_channel_split_is_dead () =
  let module Bpred = Guillotine_microarch.Bpred in
  let prng = Prng.create 25L in
  let secret = Bits.random prng 128 in
  let r =
    Covert.branch_predictor ~sender:(Bpred.create ()) ~receiver:(Bpred.create ())
      secret
  in
  Alcotest.(check bool) "near chance" true (r.Covert.accuracy < 0.65);
  Alcotest.(check bool) "all-zero read" true
    (List.for_all (fun b -> not b) r.Covert.recovered)

let prop_prime_probe_shared_always_perfect =
  QCheck.Test.make ~name:"shared-cache prime+probe recovers any bit pattern" ~count:25
    QCheck.(list_of_size Gen.(1 -- 64) bool)
    (fun secret ->
      let sender, receiver = shared_pair () in
      let r = Covert.prime_probe ~sender ~receiver secret in
      r.Covert.recovered = secret)

(* ----------------------------- Spectre ------------------------------ *)

module Spectre = Guillotine_model.Spectre

let test_spectre_recovers_mapped_secret () =
  let prng = Prng.create 30L in
  let secret = Bits.random prng 32 in
  let o = Spectre.attack ~secret ~mapped_secret:true () in
  Alcotest.(check (float 1e-9)) "full recovery" 1.0 o.Spectre.accuracy;
  Alcotest.(check (list bool)) "bit-exact" secret o.Spectre.recovered

let test_spectre_dead_without_mapping () =
  let prng = Prng.create 31L in
  let secret = Bits.random prng 64 in
  let o = Spectre.attack ~secret ~mapped_secret:false () in
  (* The transient load faults (suppressed, no cache touch): the probe
     reads a constant, so accuracy equals the secret's zero fraction. *)
  Alcotest.(check bool) "near chance" true (o.Spectre.accuracy < 0.7);
  Alcotest.(check bool) "constant read-out" true
    (List.for_all (fun b -> not b) o.Spectre.recovered)

let test_spectre_needs_speculation () =
  (* Sanity: the architectural path alone never leaks — with the
     transient window disabled the channel dies even with the secret
     mapped.  (Direct core surgery, since the attack helper owns its
     core: replicate with depth 0 via a crafted secret of all-ones and
     check recovery fails... simpler: all-ones secret distinguishes
     constant-zero readout from real recovery.) *)
  let secret = List.init 16 (fun _ -> true) in
  let o = Spectre.attack ~secret ~mapped_secret:true () in
  Alcotest.(check (float 1e-9)) "leaks with speculation" 1.0 o.Spectre.accuracy

(* --------------------------- Asm runtime ---------------------------- *)

module Asm_runtime = Guillotine_model.Asm_runtime
module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core

let run_with_runtime body =
  let m = Machine.create () in
  let src =
    "\n  jmp @start\n  .zero 7\n  .zero 8\n" ^ body ^ Asm_runtime.library
  in
  let p = Guillotine_isa.Asm.assemble_exn src in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:8 p;
  ignore (Machine.run_models m ~quantum:100_000);
  let core = Machine.model_core m 0 in
  Alcotest.(check bool) "halted cleanly" true
    (Core.status core = Core.Halted Core.Halt_instruction);
  m

let data = 4 * 256

let test_runtime_memset_memcpy () =
  let m =
    run_with_runtime
      (Printf.sprintf
         {|
start:
  movi r1, %d        ; memset(data, 7, 10)
  movi r2, 7
  movi r3, 10
  jal  r15, @rt_memset
  movi r1, %d        ; memcpy(data+100, data, 10)
  movi r2, %d
  movi r3, 10
  jal  r15, @rt_memcpy
  halt
|}
         data (data + 100) data)
  in
  for i = 0 to 9 do
    Alcotest.(check int64) "set" 7L (Dram.read (Machine.model_dram m) (data + i));
    Alcotest.(check int64) "copied" 7L (Dram.read (Machine.model_dram m) (data + 100 + i))
  done;
  Alcotest.(check int64) "copy stops at len" 0L
    (Dram.read (Machine.model_dram m) (data + 110))

let test_runtime_checksum () =
  let m =
    run_with_runtime
      (Printf.sprintf
         {|
start:
  movi r1, %d
  movi r2, 5
  movi r3, 4
  jal  r15, @rt_memset   ; data[0..3] = 5
  movi r1, %d
  movi r2, 4
  jal  r15, @rt_checksum
  movi r4, %d
  store r4, r1, 0        ; result at data+50
  halt
|}
         data data (data + 50))
  in
  Alcotest.(check int64) "sum 4x5" 20L (Dram.read (Machine.model_dram m) (data + 50))

let test_runtime_find_max_matches_gpu_kernel () =
  (* The guest-side argmax and the GPU ARGMAX kernel implement the same
     tie-break; cross-check them on the same data. *)
  let values = [ 3; 1; 4; 1; 5; 9; 2; 6; 9; 3 ] in
  let stores =
    String.concat "\n"
      (List.mapi
         (fun i v -> Printf.sprintf "  movi r2, %d\n  store r1, r2, %d" v i)
         values)
  in
  let m =
    run_with_runtime
      (Printf.sprintf {|
start:
  movi r1, %d
%s
  movi r1, %d
  movi r2, %d
  jal  r15, @rt_find_max
  movi r4, %d
  store r4, r1, 0
  halt
|}
         data stores data (List.length values) (data + 50))
  in
  let asm_result = Dram.read (Machine.model_dram m) (data + 50) in
  Alcotest.(check int64) "first max (index 5)" 5L asm_result;
  (* Same data through the GPU kernel. *)
  let module Gpu = Guillotine_devices.Gpu in
  let gpu = Gpu.create ~mem_words:64 ~name:"g" () in
  List.iteri (fun i v -> ignore (Gpu.poke gpu i (Int64.of_int v))) values;
  let d = Gpu.device gpu in
  let resp =
    d.Guillotine_devices.Device.handle ~now:0
      [| Int64.of_int Gpu.op_argmax; 0L; Int64.of_int (List.length values) |]
  in
  Alcotest.(check int64) "gpu agrees" asm_result
    resp.Guillotine_devices.Device.payload.(0)

let test_preemptive_scheduler_multitasks () =
  (* Two guest-internal tasks share one core under the guest's own
     timer-driven scheduler; the hypervisor is not involved at all. *)
  let m = Machine.create () in
  let p = Guillotine_isa.Asm.assemble_exn Guillotine_model.Guest_programs.preemptive_scheduler in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  Core.set_timer (Machine.model_core m 0) ~interval:500;
  ignore (Machine.run_models m ~quantum:30_000);
  let base = Guillotine_model.Guest_programs.result_base in
  let a = Dram.read (Machine.model_dram m) base in
  let b = Dram.read (Machine.model_dram m) (base + 1) in
  Alcotest.(check bool) "task 0 ran" true (Int64.compare a 0L > 0);
  Alcotest.(check bool) "task 1 ran" true (Int64.compare b 0L > 0);
  (* Fair-ish: neither task got starved (within 5x of each other). *)
  let a = Int64.to_float a and b = Int64.to_float b in
  Alcotest.(check bool) "roughly fair" true (a /. b < 5.0 && b /. a < 5.0);
  (* And the core is still running its own little OS. *)
  Alcotest.(check bool) "still alive" true
    (Core.status (Machine.model_core m 0) = Core.Running)

(* ------------------------- Guest programs -------------------------- *)

let test_guest_programs_assemble () =
  let module Guest = Guillotine_model.Guest_programs in
  List.iter
    (fun (name, src) ->
      match Guillotine_isa.Asm.assemble src with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: line %d: %s" name e.Guillotine_isa.Asm.line
                     e.Guillotine_isa.Asm.message)
    [
      ("compute_loop", Guest.compute_loop ~iterations:10);
      ("io_request", Guest.io_request ~io_vaddr:25600 ~opcode:1 ~arg:2 ~line:0);
      ("irq_flood", Guest.irq_flood ~count:10 ~line:0);
      ("wx_injection", Guest.wx_injection);
      ("memory_probe", Guest.memory_probe ~start:1024 ~stride:256);
      ("self_improve", Guest.self_improve_attempt);
      ("timing_probe", Guest.timing_probe ~iterations:10);
      ("preemptive_scheduler", Guest.preemptive_scheduler);
      ( "ring_transact",
        Guest.ring_transact ~req_base:25856 ~resp_base:25984 ~line:0 ~payload:[ 3 ] );
    ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "model"
    [
      ( "vocab",
        [
          Alcotest.test_case "structure" `Quick test_vocab_structure;
          Alcotest.test_case "roundtrip" `Quick test_vocab_roundtrip;
          Alcotest.test_case "render/tokenize" `Quick test_vocab_render_tokenize;
        ] );
      ( "prompts",
        [
          Alcotest.test_case "benign clean" `Quick test_prompts_benign_has_no_markers;
          Alcotest.test_case "jailbreak markers" `Quick
            test_prompts_jailbreak_has_markers;
          Alcotest.test_case "triggering shape" `Quick
            test_prompts_triggering_ends_with_trigger;
          Alcotest.test_case "corpus counts" `Quick test_prompts_corpus_counts;
        ] );
      ( "toymodel",
        [
          Alcotest.test_case "benign never harmful" `Quick
            test_benign_model_never_emits_harmful;
          Alcotest.test_case "malicious dives on trigger" `Quick
            test_malicious_model_dives_on_trigger;
          Alcotest.test_case "malicious benign without trigger" `Quick
            test_malicious_model_benign_without_trigger;
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "steer and break hooks" `Quick test_hook_steer_and_break;
          Alcotest.test_case "digest detects tamper" `Quick
            test_weights_digest_detects_tamper;
          Alcotest.test_case "edge cases" `Quick test_empty_prompt_and_bad_tokens;
          Alcotest.test_case "weight reads counted" `Quick test_weight_reads_counted;
          Alcotest.test_case "argmax edge weights" `Quick test_argmax_edge_weights;
          Alcotest.test_case "argmax row past DRAM end" `Quick
            test_argmax_row_past_dram_end;
          Alcotest.test_case "argmax reads inside data" `Quick test_argmax_inside_data;
        ] );
      ( "covert",
        [
          Alcotest.test_case "prime+probe shared leaks" `Quick
            test_prime_probe_shared_leaks;
          Alcotest.test_case "prime+probe split dead" `Quick
            test_prime_probe_split_is_dead;
          Alcotest.test_case "flush+reload shared leaks" `Quick
            test_flush_reload_shared_leaks;
          Alcotest.test_case "flush+reload split dead" `Quick
            test_flush_reload_split_is_dead;
          Alcotest.test_case "bpred channel shared leaks" `Quick
            test_bpred_channel_shared_leaks;
          Alcotest.test_case "bpred channel split dead" `Quick
            test_bpred_channel_split_is_dead;
          qc prop_prime_probe_shared_always_perfect;
        ] );
      ( "spectre",
        [
          Alcotest.test_case "recovers mapped secret" `Quick
            test_spectre_recovers_mapped_secret;
          Alcotest.test_case "dead without mapping" `Quick
            test_spectre_dead_without_mapping;
          Alcotest.test_case "all-ones recovery" `Quick test_spectre_needs_speculation;
        ] );
      ( "asm-runtime",
        [
          Alcotest.test_case "memset + memcpy" `Quick test_runtime_memset_memcpy;
          Alcotest.test_case "checksum" `Quick test_runtime_checksum;
          Alcotest.test_case "find_max matches GPU kernel" `Quick
            test_runtime_find_max_matches_gpu_kernel;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "preemptive multitasking in-guest" `Quick
            test_preemptive_scheduler_multitasks;
        ] );
      ( "guests",
        [ Alcotest.test_case "programs assemble" `Quick test_guest_programs_assemble ] );
    ]
