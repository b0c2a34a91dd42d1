(* Host-performance bench suite (P1): how fast does the simulator
   itself run on the host?

   Four pinned workloads, each reduced to one throughput number:

   - benign-guest   full-machine throughput on the benign compute loop,
                    installed through the hypervisor so the vetting CFG
                    feeds block translation; measured twice — fast path
                    (block-translated execution + Engine.every_batch +
                    Machine.run_cores) vs the baseline driver (JIT off +
                    Engine.every at quantum 1, one instruction per heap
                    event) — and reported as a speedup.
   - patch-loop     the invalidation price: the same hv-installed
                    compute loop, but the host patches the hot mul word
                    between runs, so every round invalidates the
                    translated block and forces a lazy recompile before
                    re-entering steady state.
   - fetch-loop     a pure control-flow guest (nops + jmp) on the
                    interpreter; the hot fetch/execute path allocates
                    nothing once its ops are cached, so this is where
                    the words-per-instruction
                    metric is meaningful (Int64 arithmetic necessarily
                    boxes, which benign-guest shows).
   - covert-channel prime+probe on one shared hierarchy — the
                    Hierarchy/Cache access path with no core on top.
   - f-storm        the "fault-storm-failover" golden scenario, whole
                    rig end to end.
   - coadmit-pair   the V2 cost side: full static co-admission of the
                    colluding courier/scribbler pair — two effect
                    summaries (each a complete vetting analysis) plus
                    the pairwise interference check — measured in
                    pairs/sec, to set the microseconds-per-pair price
                    of rejecting before cycle 0 against the ~0.5
                    sim-second runtime detection latency the adversary
                    suite pays for the same attack.

   Simulated results are identical in every mode (the equivalence suite
   pins that); this file only measures host seconds and minor-heap
   words.  Output is a table, or JSON (one object per line) for the
   committed BENCH_PERF.json regression baseline checked in CI. *)

module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core
module Hypervisor = Guillotine_hv.Hypervisor
module Asm = Guillotine_isa.Asm
module Isa = Guillotine_isa.Isa
module Encoding = Guillotine_isa.Encoding
module Guest = Guillotine_model.Guest_programs
module Covert = Guillotine_model.Covert
module Dram = Guillotine_memory.Dram
module Hierarchy = Guillotine_memory.Hierarchy
module Engine = Guillotine_sim.Engine
module Scenarios = Guillotine_faults.Scenarios
module Vet_corpus = Guillotine_core.Vet_corpus
module Prng = Guillotine_util.Prng
module Bits = Guillotine_util.Bits
module Table = Guillotine_util.Table

type sample = {
  workload : string;
  metric : string;  (* instr_per_sec | cycles_per_sec | runs_per_sec *)
  value : float;  (* fast-path throughput, best of [repeat] runs *)
  baseline : float;  (* slow-path throughput; 0 when not applicable *)
  speedup : float;  (* value / baseline; 0 when not applicable *)
  alloc_words_per_instr : float;
      (* minor words per simulated instruction on the fast path;
         negative when not measured for this workload *)
  detail : string;
}

let workload_names =
  [ "benign-guest"; "patch-loop"; "fetch-loop"; "covert-channel"; "f-storm";
    "coadmit-pair" ]

(* ----------------------------- timing ------------------------------ *)

(* CPU seconds; wall clocks jitter under CI load and this suite is
   single-threaded anyway.  Sys.time's granularity is coarse (1-10ms),
   so each timing sample accumulates calls of [f] until the window
   exceeds [min_window_s] — otherwise a reduced-iteration (--quick) run
   finishes inside one clock tick and its rate quantizes to noise,
   which would make the CI --check against the committed full-run
   numbers meaningless.  Best-of-n on the resulting rates: host-perf
   numbers are minimum-noise, not averages. *)
let min_window_s = 0.05

let best_of ~repeat f =
  let best = ref None in
  for _ = 1 to max 1 repeat do
    let t0 = Sys.time () in
    let work = ref 0 in
    while Sys.time () -. t0 < min_window_s do
      work := !work + f ()
    done;
    let dt = max (Sys.time () -. t0) 1e-6 in
    let rate = float_of_int !work /. dt in
    match !best with
    | Some (r, _, _) when r >= rate -> ()
    | _ -> best := Some (rate, !work, dt)
  done;
  match !best with Some b -> b | None -> assert false

(* --------------------------- benign-guest -------------------------- *)

(* Reference point measured once from a worktree at the pre-fast-path
   commit (9eb1c7a), same harness shape (Engine.every + run_models at
   quantum 1 over the 400k-iteration compute loop): 2.55e6 instr/s.
   The in-tree baseline measured below is faster than that, because the
   component-level work (hoisted TLB/cache walk loops, the MMU translate
   memo, the interpreter's op cache) is unconditional and speeds the
   baseline arm too — so the speedup this suite reports is a lower bound
   on the speedup over the true pre-fast-path interpreter. *)
let prepr_benign_instr_per_sec = 2.55e6

(* The machine is built once and the guest reinstalled per timed call:
   rig construction (DRAM arrays, cache ways) is setup, not the
   interpreter work this sample measures, and at --quick iteration
   counts it would otherwise dominate the window.  Installation goes
   through the hypervisor — the production path — so the vetting CFG's
   block map reaches the core and the fast arm runs block-translated;
   the per-call reinstall keeps the (cheap) translation pass inside the
   window, as it is in deployment. *)
let bench_benign ~repeat ~iterations =
  let ambient_jit = Core.jit_enabled () in
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations) in
  let c = Machine.model_core m 0 in
  let run ~fast () =
    Core.set_jit fast;
    (match
       Hypervisor.install_program hv ~label:"benign" ~core:0 ~code_pages:4
         ~data_pages:4 p
     with
    | Ok _ -> ()
    | Error _ -> invalid_arg "benign-guest: install rejected");
    let before = Core.instructions_retired c in
    let e = Engine.create () in
    (if fast then
       ignore
         (Engine.every_batch e ~period:1.0 ~batch:64 (fun () ->
              Machine.run_cores m ~cycles:4096 > 0))
     else
       (* The pre-fast-path driver shape: one instruction per heap
          event. *)
       ignore
         (Engine.every e ~period:1.0 (fun () -> Machine.run_models m ~quantum:1 > 0)));
    Engine.run e;
    Core.instructions_retired c - before
  in
  let fast_rate, retired, _ = best_of ~repeat (run ~fast:true) in
  let base_rate, _, _ = best_of ~repeat (run ~fast:false) in
  (* Leave the process-wide flag as found — later workloads (patch-loop
     in particular) measure under the ambient configuration. *)
  Core.set_jit ambient_jit;
  {
    workload = "benign-guest";
    metric = "instr_per_sec";
    value = fast_rate;
    baseline = base_rate;
    speedup = fast_rate /. base_rate;
    alloc_words_per_instr = -1.0;
    detail =
      Printf.sprintf "%d instructions retired; %.1fx vs pre-fast-path commit (%.3g/s)"
        retired
        (fast_rate /. prepr_benign_instr_per_sec)
        prepr_benign_instr_per_sec;
  }

(* ---------------------------- patch-loop --------------------------- *)

(* Self-modifying guest: after each run to halt, the host rewrites the
   hot [mul] word (alternating between two encodings so the stored word
   really changes) and re-executes from entry.  Every round the
   translated loop block sees a fetch/compile word mismatch, drops the
   translation, finishes the round interpreting + lazily recompiling —
   the invalidation path this sample prices.  The [dma_sleeper] TOCTOU
   adversary exercises the same mechanism for correctness; this pins
   its host cost. *)
let bench_patch_loop ~repeat ~rounds =
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations:64) in
  (match
     Hypervisor.install_program hv ~label:"patch-loop" ~core:0 ~code_pages:4
       ~data_pages:4 p
   with
  | Ok _ -> ()
  | Error _ -> invalid_arg "patch-loop: install rejected");
  let c = Machine.model_core m 0 in
  let mul_a = Encoding.encode (Isa.Mul (6, 1, 1)) in
  let mul_b = Encoding.encode (Isa.Mul (6, 5, 5)) (* r5 = 1: same result shape *) in
  let mul_addr =
    let found = ref (-1) in
    Array.iteri
      (fun i w -> if !found < 0 && w = mul_a then found := p.Asm.origin + i)
      p.Asm.words;
    if !found < 0 then invalid_arg "patch-loop: mul word not found";
    !found
  in
  (* First run to halt outside the window: warms caches and the initial
     translation, and leaves the core quiescent for inspect_write. *)
  ignore (Core.run c ~fuel:max_int);
  let flip = ref false in
  let run () =
    let before = Core.instructions_retired c in
    for _ = 1 to rounds do
      Machine.inspect_write m mul_addr (if !flip then mul_a else mul_b);
      flip := not !flip;
      Core.set_pc c p.Asm.origin;
      Core.resume c;
      ignore (Core.run c ~fuel:max_int)
    done;
    Core.instructions_retired c - before
  in
  let rate, retired, _ = best_of ~repeat run in
  let js = Core.jit_stats c in
  {
    workload = "patch-loop";
    metric = "instr_per_sec";
    value = rate;
    baseline = 0.0;
    speedup = 0.0;
    alloc_words_per_instr = -1.0;
    detail =
      Printf.sprintf
        "%d instructions across patch+rerun rounds; %d invalidations, %d retranslations"
        retired js.Guillotine_microarch.Jit.invalidations
        js.Guillotine_microarch.Jit.translations;
  }

(* ---------------------------- fetch-loop --------------------------- *)

(* Standard image layout (entry jump, zeroed vector table, code from
   word 16) with a body that never touches an Int64: nothing on the
   fast path allocates, which Gc.minor_words verifies. *)
let fetch_loop_source =
  {|
  jmp @start
  .zero 7
  .zero 8
start:
  nop
  nop
  nop
  nop
  nop
  nop
  nop
  jmp @start
|}

let bench_fetch_loop ~repeat ~fuel =
  let m = Machine.create () in
  let p = Asm.assemble_exn fetch_loop_source in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  let core = Machine.model_core m 0 in
  (* Warm the op cache and the cache hierarchy out of the measured
     window; the loop is infinite, so every later call is steady
     state. *)
  ignore (Core.run core ~fuel:1024);
  let alloc = ref infinity in
  let measure () =
    let w0 = Gc.minor_words () in
    let executed = Core.run core ~fuel in
    let words = Gc.minor_words () -. w0 in
    alloc := min !alloc (words /. float_of_int executed);
    executed
  in
  let rate, executed, _ = best_of ~repeat measure in
  {
    workload = "fetch-loop";
    metric = "instr_per_sec";
    value = rate;
    baseline = 0.0;
    speedup = 0.0;
    alloc_words_per_instr = !alloc;
    detail = Printf.sprintf "%d instructions, steady state" executed;
  }

(* -------------------------- covert-channel ------------------------- *)

let bench_covert ~repeat ~bits =
  let dram = Dram.create ~size:(64 * 1024) in
  let h = Hierarchy.create ~dram () in
  let prng = Prng.create 97L in
  let run () =
    let secret = Bits.random prng bits in
    let r = Covert.prime_probe ~sender:h ~receiver:h secret in
    r.Covert.cycles
  in
  let rate, cycles, _ = best_of ~repeat run in
  {
    workload = "covert-channel";
    metric = "cycles_per_sec";
    value = rate;
    baseline = 0.0;
    speedup = 0.0;
    alloc_words_per_instr = -1.0;
    detail = Printf.sprintf "%d sim cycles, %d bits, shared L1" cycles bits;
  }

(* ----------------------------- f-storm ----------------------------- *)

let run_fstorm ~runs () =
  for _ = 1 to runs do
    ignore (Scenarios.run "fault-storm-failover" ~seed:1)
  done;
  runs

let bench_fstorm ~repeat ~runs =
  let rate, total, dt = best_of ~repeat (run_fstorm ~runs) in
  {
    workload = "f-storm";
    metric = "runs_per_sec";
    value = rate;
    baseline = 0.0;
    speedup = 0.0;
    alloc_words_per_instr = -1.0;
    detail = Printf.sprintf "%d full scenario run(s) in %.2fs host" total dt;
  }

(* --------------------------- coadmit-pair -------------------------- *)

let bench_coadmit ~repeat ~pairs =
  let roster =
    match Vet_corpus.find_roster "colluding-pair" with
    | Some r -> r
    | None -> invalid_arg "colluding-pair roster missing from corpus"
  in
  let run () =
    for _ = 1 to pairs do
      ignore (Vet_corpus.coadmit roster)
    done;
    pairs
  in
  let rate, total, dt = best_of ~repeat run in
  {
    workload = "coadmit-pair";
    metric = "pairs_per_sec";
    value = rate;
    baseline = 0.0;
    speedup = 0.0;
    alloc_words_per_instr = -1.0;
    detail =
      Printf.sprintf
        "%d co-admissions in %.2fs host (%.0f us/pair, rejected before cycle 0; the runtime path catches the same rewrite ~0.5 sim-s after admission)"
        total dt (1e6 /. rate);
  }

(* ------------------------------- JSON ------------------------------ *)

let json_of_sample s =
  Printf.sprintf
    {|{"workload":"%s","metric":"%s","value":%.6g,"baseline":%.6g,"speedup":%.6g,"alloc_words_per_instr":%.6g,"detail":"%s"}|}
    s.workload s.metric s.value s.baseline s.speedup s.alloc_words_per_instr
    s.detail

let json_of_samples samples =
  String.concat "\n" ({|{"suite":"guillotine-bench-perf","version":1}|}
                      :: List.map json_of_sample samples)
  ^ "\n"

(* Minimal line-oriented extraction — the emitter above is the only
   producer, so a full JSON parser buys nothing (and none is vendored). *)
let index_of_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then -1
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go 0

let field_raw line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let i = index_of_sub line pat in
  let n = String.length line in
  if i < 0 then None
  else begin
    let start = i + String.length pat in
    if start >= n then None
    else if line.[start] = '"' then begin
      let stop = ref (start + 1) in
      while !stop < n && line.[!stop] <> '"' do incr stop done;
      if !stop >= n then None
      else Some (String.sub line start (!stop + 1 - start))
    end
    else begin
      let stop = ref start in
      while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do incr stop done;
      Some (String.sub line start (!stop - start))
    end
  end

let field_string line key =
  match field_raw line key with
  | Some raw when String.length raw >= 2 && raw.[0] = '"' ->
    Some (String.sub raw 1 (String.length raw - 2))
  | _ -> None

let field_float line key =
  match field_raw line key with
  | Some raw -> float_of_string_opt (String.trim raw)
  | None -> None

let parse_json text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match (field_string line "workload", field_float line "value") with
         | Some w, Some v -> Some (w, v)
         | _ -> None)

(* --------------------------- regression check ---------------------- *)

let check_against ~path ~tolerance samples =
  let committed =
    let ic = open_in path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    parse_json text
  in
  if committed = [] then [ Printf.sprintf "%s: no samples parsed" path ]
  else
    List.filter_map
      (fun (workload, old_value) ->
        match List.find_opt (fun s -> s.workload = workload) samples with
        | None -> Some (Printf.sprintf "%s: workload missing from this run" workload)
        | Some s ->
          let floor = old_value *. (1.0 -. tolerance) in
          if s.value < floor then
            Some
              (Printf.sprintf
                 "%s: throughput regressed beyond %.0f%%: %.3g/s < %.3g/s (committed %.3g/s)"
                 workload (tolerance *. 100.0) s.value floor old_value)
          else None)
      committed

(* ------------------------------ driver ----------------------------- *)

let run_workload ~quick ~repeat = function
  | "benign-guest" ->
    bench_benign ~repeat ~iterations:(if quick then 20_000 else 400_000)
  | "patch-loop" -> bench_patch_loop ~repeat ~rounds:(if quick then 16 else 128)
  | "fetch-loop" -> bench_fetch_loop ~repeat ~fuel:(if quick then 100_000 else 2_000_000)
  | "covert-channel" -> bench_covert ~repeat ~bits:(if quick then 64 else 512)
  | "f-storm" -> bench_fstorm ~repeat:(if quick then 1 else repeat) ~runs:1
  | "coadmit-pair" -> bench_coadmit ~repeat ~pairs:(if quick then 8 else 64)
  | w -> invalid_arg (Printf.sprintf "unknown perf workload %S" w)

let print_table samples =
  let t =
    Table.create ~title:"P1: host-perf (interpreter fast path)"
      ~columns:
        [
          ("workload", Table.Left);
          ("metric", Table.Left);
          ("fast", Table.Right);
          ("baseline", Table.Right);
          ("speedup", Table.Right);
          ("alloc w/instr", Table.Right);
          ("detail", Table.Left);
        ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          s.workload;
          s.metric;
          Printf.sprintf "%.3g/s" s.value;
          (if s.baseline > 0.0 then Printf.sprintf "%.3g/s" s.baseline else "-");
          (if s.speedup > 0.0 then Printf.sprintf "%.1fx" s.speedup else "-");
          (if s.alloc_words_per_instr >= 0.0 then
             Printf.sprintf "%.3f" s.alloc_words_per_instr
           else "-");
          s.detail;
        ])
    samples;
  Table.print t

(* Runs the suite; returns an exit code (non-zero when a [check]
   regression fired).  Restores the process-wide JIT flag. *)
let run ?(workloads = workload_names) ?(repeat = 3) ?(quick = false) ?(json = false)
    ?out ?check ?(tolerance = 0.30) () =
  let initial_jit = Core.jit_enabled () in
  let samples =
    Fun.protect
      ~finally:(fun () -> Core.set_jit initial_jit)
      (fun () -> List.map (run_workload ~quick ~repeat) workloads)
  in
  if json then print_string (json_of_samples samples) else print_table samples;
  (match out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (json_of_samples samples);
    close_out oc;
    if not json then Printf.printf "wrote %s\n" path);
  match check with
  | None -> 0
  | Some path -> (
    match check_against ~path ~tolerance samples with
    | [] ->
      Printf.printf "check against %s: ok (tolerance %.0f%%)\n" path
        (tolerance *. 100.0);
      0
    | failures ->
      List.iter (Printf.eprintf "perf regression: %s\n") failures;
      1)
