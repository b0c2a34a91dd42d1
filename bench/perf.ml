(* The host-performance bench: how fast does the simulator itself run
   on the host, and what does arming the cycle-attribution profiler
   cost?

   One registry of pinned workloads, each reduced to one throughput
   row:

   - benign-guest   full-machine throughput on the benign compute loop,
                    installed through the hypervisor so the vetting CFG
                    feeds block translation; measured twice — fast path
                    (block-translated execution + Engine.every_batch +
                    Machine.run_cores) vs the baseline driver (JIT off +
                    Engine.every at quantum 1, one instruction per heap
                    event) — with the speedup in the detail.
   - patch-loop     the invalidation price: the same hv-installed
                    compute loop, but the host patches the hot mul word
                    between runs, so every round invalidates the
                    translated block and forces a lazy recompile before
                    re-entering steady state.
   - fetch-loop     a pure control-flow guest (nops + jmp) on the
                    interpreter, with its words per instruction in the
                    detail.  Once its ops are cached the fetch/execute
                    path allocates nothing, and neither does Int64
                    arithmetic on the unboxed register file; the
                    allocation group of test_perf_equiv pins both.
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
                    sim-second runtime detection latency of the same
                    attack.
   - benign-p1      the benign compute loop measured profiler-off then
                    profiler-on in the same process; the row is the
                    profiled throughput.  Simulated cycles and
                    instructions must match exactly between the modes,
                    since the profiler only reads simulated state.
   - adversary-sprint  the "killswitch-exfil-sprint" adversary scenario
                    (a deployment whose model core retires ~100k
                    hot-loop instructions), bare vs a profiling mode.
                    The profiled run's trace, verdict and recovery
                    count must be byte-identical to the bare run.

   Gates, recorded in a row's [failures] ([run] exits 1 on any):
   - a simulated delta or scenario divergence between profiler off and on;
   - profiler overhead above [max_overhead_frac] on benign-p1;
   - an armed run that collects an empty profile.
   [check] adds one more: a value more than [tolerance] below its
   committed row in BENCH.json.

   Simulated results are identical in every mode (the equivalence suite
   pins that); this file only measures host seconds and minor-heap
   words.  Output is a table, or JSON (one object per line) in the
   schema of the committed BENCH.json. *)

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
module Profile = Guillotine_obs.Profile
module Prng = Guillotine_util.Prng
module Bits = Guillotine_util.Bits
module Table = Guillotine_util.Table

type row = {
  workload : string;
  metric : string;  (* instr_per_sec | cycles_per_sec | runs_per_sec | pairs_per_sec *)
  value : float;  (* throughput, best of [repeat] timing windows *)
  detail : string;
  failures : string list;  (* gates this run tripped; not serialised *)
}

let repeat = 3

(* A committed value may drop by this fraction before [check] calls it a
   regression: host-perf numbers move with machine load. *)
let tolerance = 0.30

(* The hard gate on profiler cost: arming attribution may not slow the
   benign-p1 workload by more than this fraction. *)
let max_overhead_frac = 0.05

let gate cond failure = if cond then [ failure ] else []

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

(* Runs the benign compute loop the fast way: one engine event per 64
   batches of 4096 cycles. *)
let drive_batched m =
  let e = Engine.create () in
  ignore
    (Engine.every_batch e ~period:1.0 ~batch:64 (fun () ->
         Machine.run_cores m ~cycles:4096 > 0));
  Engine.run e

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

(* Each arm builds its machine once, in its own mode, and reinstalls
   the guest per timed call: rig construction (DRAM arrays, cache ways)
   is setup, not the interpreter work this sample measures, and at
   --quick iteration counts it would otherwise dominate the window.
   Installation goes through the hypervisor — the production path — so
   the vetting CFG's block map reaches the core and the fast arm runs
   block-translated; the per-call reinstall keeps the (cheap)
   translation pass inside the window, as it is in deployment. *)
let bench_benign ~iterations =
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations) in
  let arm ~fast =
    let m = Machine.create ~mode:{ Core.default_mode with Core.jit = fast } () in
    let hv = Hypervisor.create ~machine:m () in
    let c = Machine.model_core m 0 in
    fun () ->
      (match
         Hypervisor.install_program hv ~label:"benign" ~core:0 ~code_pages:4
           ~data_pages:4 p
       with
      | Ok _ -> ()
      | Error _ -> invalid_arg "benign-guest: install rejected");
      let before = Core.instructions_retired c in
      (if fast then drive_batched m
       else begin
         (* The pre-fast-path driver shape: one instruction per heap
            event. *)
         let e = Engine.create () in
         ignore
           (Engine.every e ~period:1.0 (fun () -> Machine.run_models m ~quantum:1 > 0));
         Engine.run e
       end);
      Core.instructions_retired c - before
  in
  let fast_rate, retired, _ = best_of ~repeat (arm ~fast:true) in
  let base_rate, _, _ = best_of ~repeat (arm ~fast:false) in
  {
    workload = "benign-guest";
    metric = "instr_per_sec";
    value = fast_rate;
    detail =
      Printf.sprintf
        "%d instructions retired; baseline %.3g/s, %.2fx; %.1fx vs pre-fast-path commit (%.3g/s)"
        retired base_rate (fast_rate /. base_rate)
        (fast_rate /. prepr_benign_instr_per_sec)
        prepr_benign_instr_per_sec;
    failures = [];
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
let bench_patch_loop ~rounds =
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
    detail =
      Printf.sprintf
        "%d instructions across patch+rerun rounds; %d invalidations, %d retranslations"
        retired js.Guillotine_microarch.Jit.invalidations
        js.Guillotine_microarch.Jit.translations;
    failures = [];
  }

(* ---------------------------- fetch-loop --------------------------- *)

(* Standard image layout (entry jump, zeroed vector table, code from
   word 16) with a body of nops and a jmp: once its ops are cached,
   nothing on the fetch/execute path allocates.  The 0 words this row
   reports are pinned by test_perf_equiv's "fetch loop allocates
   nothing". *)
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

let bench_fetch_loop ~fuel =
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
    detail =
      Printf.sprintf "%d instructions, steady state, %.3f words/instr" executed
        !alloc;
    failures = [];
  }

(* -------------------------- covert-channel ------------------------- *)

let bench_covert ~bits =
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
    detail = Printf.sprintf "%d sim cycles, %d bits, shared L1" cycles bits;
    failures = [];
  }

(* ----------------------------- f-storm ----------------------------- *)

let bench_fstorm ~repeat =
  let run () =
    ignore (Scenarios.run "fault-storm-failover" ~seed:1);
    1
  in
  let rate, total, dt = best_of ~repeat run in
  {
    workload = "f-storm";
    metric = "runs_per_sec";
    value = rate;
    detail = Printf.sprintf "%d full scenario run(s) in %.2fs host" total dt;
    failures = [];
  }

(* --------------------------- coadmit-pair -------------------------- *)

let bench_coadmit ~pairs =
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
    detail =
      Printf.sprintf
        "%d co-admissions in %.2fs host (%.0f us/pair, rejected before cycle 0; the runtime path catches the same rewrite ~0.5 sim-s after admission)"
        total dt (1e6 /. rate);
    failures = [];
  }

(* ---------------------------- benign-p1 ---------------------------- *)

let bench_benign_p1 ~iterations =
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations) in
  (* One deterministic pass per mode for the simulated-state gate: a
     FRESH machine each time (identical cold caches/TLBs), same guest,
     profiler off then on — cycles and instructions retired must match
     exactly. *)
  let sim_pass ~profiled =
    let m = Machine.create () in
    let c = Machine.model_core m 0 in
    Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
    Core.set_profiling c profiled;
    drive_batched m;
    (Core.cycles c, Core.instructions_retired c, c)
  in
  let bare_cycles, bare_retired, _ = sim_pass ~profiled:false in
  let prof_cycles, prof_retired, prof_core = sim_pass ~profiled:true in
  let sim_delta =
    abs (prof_cycles - bare_cycles) + abs (prof_retired - bare_retired)
  in
  let profile_empty =
    Array.for_all (fun v -> v = 0) (Core.profile_cycles prof_core)
  in
  (* Timing reuses one machine (reinstall per call): warm simulated
     state is fine here — both modes see it and only host time is
     measured. *)
  let m = Machine.create () in
  let c = Machine.model_core m 0 in
  let timed ~profiled () =
    Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
    Core.set_profiling c profiled;
    let before = Core.instructions_retired c in
    drive_batched m;
    Core.instructions_retired c - before
  in
  let off_rate, _, _ = best_of ~repeat (timed ~profiled:false) in
  let on_rate, retired, _ = best_of ~repeat (timed ~profiled:true) in
  (* The off/on windows are measured back to back, so a host load spike
     in one of them can fake an overhead blowout.  Before letting the
     gate trip, re-measure with more samples and keep the minimum-noise
     (maximum) rate for each mode. *)
  let off_rate, on_rate, retired =
    if 1.0 -. (on_rate /. off_rate) <= max_overhead_frac then
      (off_rate, on_rate, retired)
    else begin
      let off2, _, _ = best_of ~repeat:(2 * repeat) (timed ~profiled:false) in
      let on2, retired2, _ = best_of ~repeat:(2 * repeat) (timed ~profiled:true) in
      (max off_rate off2, max on_rate on2, retired2)
    end
  in
  Core.set_profiling c false;
  let overhead = 1.0 -. (on_rate /. off_rate) in
  {
    workload = "benign-p1";
    metric = "instr_per_sec";
    value = on_rate;
    detail =
      Printf.sprintf
        "%d instructions retired; %d sim cycles both modes; bare %.3g/s, overhead %.1f%%, sim delta %d"
        retired prof_cycles off_rate (overhead *. 100.0) sim_delta;
    failures =
      gate (sim_delta <> 0)
        (Printf.sprintf "simulated state perturbed (delta %d)" sim_delta)
      @ gate (overhead > max_overhead_frac)
          (Printf.sprintf "profiler overhead %.1f%% exceeds %.0f%% gate"
             (overhead *. 100.0) (max_overhead_frac *. 100.0))
      @ gate profile_empty "armed run collected no profile";
  }

(* ------------------------- adversary-sprint ------------------------ *)

let bench_adversary_sprint ~repeat =
  let scenario = "killswitch-exfil-sprint" in
  (* Divergence gate first: the profiled scenario must reproduce the
     bare run's telemetry byte for byte, and actually collect cycles. *)
  let profiled = { Core.default_mode with Core.profile = true } in
  let bare = Scenarios.run scenario ~seed:1 in
  let prof = Scenarios.run scenario ~seed:1 ~mode:profiled in
  let diverged =
    bare.Scenarios.trace <> prof.Scenarios.trace
    || bare.Scenarios.verdict <> prof.Scenarios.verdict
    || bare.Scenarios.recoveries <> prof.Scenarios.recoveries
  in
  let profile_empty =
    match prof.Scenarios.profile with
    | None -> true
    | Some p -> Profile.total_cycles p = 0
  in
  let timed mode () =
    ignore (Scenarios.run scenario ~seed:1 ~mode);
    1
  in
  let off_rate, _, _ = best_of ~repeat (timed Core.default_mode) in
  let on_rate, runs, _ = best_of ~repeat (timed profiled) in
  {
    workload = "adversary-sprint";
    metric = "runs_per_sec";
    value = on_rate;
    detail =
      Printf.sprintf "%d full %s run(s); profiled replay %s; bare %.3g/s, overhead %.1f%%"
        runs scenario
        (if diverged then "DIVERGED" else "byte-identical")
        off_rate
        ((1.0 -. (on_rate /. off_rate)) *. 100.0);
    failures =
      gate diverged "profiled replay diverged from the bare run"
      @ gate profile_empty "armed run collected no profile";
  }

(* ----------------------------- registry ---------------------------- *)

let registry =
  [
    ("benign-guest", fun ~quick ->
        bench_benign ~iterations:(if quick then 20_000 else 400_000));
    ("patch-loop", fun ~quick -> bench_patch_loop ~rounds:(if quick then 16 else 128));
    ("fetch-loop", fun ~quick ->
        bench_fetch_loop ~fuel:(if quick then 100_000 else 2_000_000));
    ("covert-channel", fun ~quick -> bench_covert ~bits:(if quick then 64 else 512));
    ("f-storm", fun ~quick -> bench_fstorm ~repeat:(if quick then 1 else repeat));
    ("coadmit-pair", fun ~quick -> bench_coadmit ~pairs:(if quick then 8 else 64));
    ("benign-p1", fun ~quick ->
        bench_benign_p1 ~iterations:(if quick then 20_000 else 400_000));
    ("adversary-sprint", fun ~quick ->
        bench_adversary_sprint ~repeat:(if quick then 1 else repeat));
  ]

let workload_names = List.map fst registry

(* ------------------------------- JSON ------------------------------ *)

let json_of_row r =
  Printf.sprintf {|{"workload":"%s","metric":"%s","value":%.6g,"detail":"%s"}|}
    r.workload r.metric r.value r.detail

let json_of_rows rows =
  String.concat "\n"
    ({|{"suite":"guillotine-bench","version":2}|} :: List.map json_of_row rows)
  ^ "\n"

(* The emitter above is the only producer, so each row line is read
   back by its own format; the header line does not match and drops
   out. *)
let parse_json text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         Scanf.sscanf_opt line {|{"workload":"%[^"]","metric":"%[^"]","value":%f|}
           (fun workload _ value -> (workload, value)))

(* --------------------------- regression check ---------------------- *)

(* Committed rows of registered workloads this run was not asked for
   are skipped, so a subset run checks only its own rows.  A committed
   row naming no registered workload always fails: the committed file
   and the registry must agree. *)
let check ~requested ~committed rows =
  if committed = [] then [ "no committed rows parsed" ]
  else
    List.filter_map
      (fun (workload, old_value) ->
        if not (List.mem workload workload_names) then
          Some (Printf.sprintf "%s: committed row names no registered workload" workload)
        else if not (List.mem workload requested) then None
        else
          match List.find_opt (fun r -> r.workload = workload) rows with
          | None -> Some (Printf.sprintf "%s: workload missing from this run" workload)
          | Some r ->
            let floor = old_value *. (1.0 -. tolerance) in
            if r.value < floor then
              Some
                (Printf.sprintf
                   "%s: throughput regressed beyond %.0f%%: %.3g/s < %.3g/s (committed %.3g/s)"
                   workload (tolerance *. 100.0) r.value floor old_value)
            else None)
      committed

(* ------------------------------ driver ----------------------------- *)

let print_table rows =
  let t =
    Table.create ~title:"guillotine bench: host throughput"
      ~columns:
        [
          ("workload", Table.Left);
          ("metric", Table.Left);
          ("value", Table.Right);
          ("detail", Table.Left);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.workload; r.metric; Printf.sprintf "%.3g/s" r.value; r.detail ])
    rows;
  Table.print t

(* Runs [workloads] (registered names) and returns an exit code: 1 when
   a gate tripped or, given a [committed] BENCH.json path, a row
   regressed against it. *)
let run ?(workloads = workload_names) ?(quick = false) ?(json = false) ?out
    ?committed () =
  let rows = List.map (fun w -> (List.assoc w registry) ~quick) workloads in
  let text = json_of_rows rows in
  if json then print_string text else print_table rows;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      if not json then Printf.printf "wrote %s\n" path)
    out;
  let gate_failures =
    List.concat_map
      (fun r -> List.map (Printf.sprintf "%s: %s" r.workload) r.failures)
      rows
  in
  List.iter (Printf.eprintf "bench gate: %s\n") gate_failures;
  let regressions =
    match committed with
    | None -> []
    | Some path ->
      check ~requested:workloads
        ~committed:(parse_json (In_channel.with_open_text path In_channel.input_all))
        rows
  in
  (match (committed, regressions) with
  | Some path, [] ->
    Printf.printf "check against %s: ok (tolerance %.0f%%)\n" path
      (tolerance *. 100.0)
  | _ -> List.iter (Printf.eprintf "bench regression: %s\n") regressions);
  if gate_failures = [] && regressions = [] then 0 else 1
