(* Fast-path equivalence suite.

   The fast paths (block translation, the interpreter's op cache,
   batched stepping) must be host-time faster but simulated-cycle
   invisible.  Five layers of pinning:

   - golden fault scenarios: every named scenario (and its monitored
     replay) produces byte-identical telemetry, verdicts, final levels,
     adversary metrics and incident reports in a rig built in the
     default mode (translating), in one built to interpret, and, for
     the monitored replay, in one built to translate and profile; each
     mode reaches every core of its rig, and the interpreting and
     translating rigs also run side by side, one per domain;
   - driver equivalence: the batched driver (Engine.every_batch +
     Machine.run_cores) leaves a guest in exactly the end state the
     one-instruction-per-event driver (Engine.every + run_models at
     quantum 1) does;
   - invalidation: a cached op is never stale — DRAM bit flips,
     hypervisor patches, and snapshot restore-then-patch all force a
     recompile before the word executes again;
   - block translation: random programs, directed invalidations, and
     the two ways a cached op could run at the wrong pc (an aliased
     code frame, a jump to a pc whose site slot was never filled);
   - fetch: the TLB, L1 and cycle counters the shared hinted fetch
     moves, pinned to the values unhinted lookups produce.

   The CI seed matrix re-runs the scenario layer at other seeds via
   FAULTS_SEED (alcotest owns argv, so an env var is the channel). *)

module Scenarios = Guillotine_faults.Scenarios
module Machine = Guillotine_machine.Machine
module Snapshot = Guillotine_machine.Snapshot
module Core = Guillotine_microarch.Core
module Dram = Guillotine_memory.Dram
module Asm = Guillotine_isa.Asm
module Isa = Guillotine_isa.Isa
module Guest = Guillotine_model.Guest_programs
module Engine = Guillotine_sim.Engine
module Telemetry = Guillotine_telemetry.Telemetry
module Table = Guillotine_util.Table

let matrix_seed =
  match Sys.getenv_opt "FAULTS_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 1)
  | None -> 1

(* The default mode with block translation set either way. *)
let mode ~jit = { Core.default_mode with Core.jit }

(* The machine snapshot now surfaces the execution-plane counters
   (coreN.predecode and coreN.jit).  Those are host-side observability
   and legitimately differ across the very modes this suite toggles
   (translation off ⇒ zero translations), so they are stripped before
   the byte-identity comparison; every simulated-state metric remains
   pinned. *)
let is_host_plane_metric key =
  let has_sub sub =
    let n = String.length key and m = String.length sub in
    let rec go i = i + m <= n && (String.sub key i m = sub || go (i + 1)) in
    go 0
  in
  has_sub ".predecode." || has_sub ".jit."

let render_snapshots o =
  let snaps =
    List.map
      (fun (s : Telemetry.snapshot) ->
        {
          s with
          Telemetry.values =
            List.filter (fun (k, _) -> not (is_host_plane_metric k)) s.Telemetry.values;
        })
      o.Scenarios.snapshots
  in
  Table.render (Telemetry.table snaps)

(* Blocks translated by every core of a run: the sum of the
   coreN.jit.translations counters [render_snapshots] strips. *)
let translations o =
  List.fold_left
    (fun acc (s : Telemetry.snapshot) ->
      List.fold_left
        (fun acc (key, v) ->
          match v with
          | Telemetry.Counter n when String.ends_with ~suffix:".jit.translations" key ->
            acc + n
          | _ -> acc)
        acc s.Telemetry.values)
    0 o.Scenarios.snapshots

(* The scenarios whose rigs install guests through the hypervisor, and
   so translate when their mode does.  The other four deployment
   scenarios run no guest; the two serving-only ones build no machine. *)
let translating =
  [
    "core-wedge-rollback";
    "irq-storm-contained";
    "toctou-dma-self-patch";
    "toctou-shared-window-rewrite";
    "toctou-install-race";
    "killswitch-exfil-sprint";
    "killswitch-replicate";
    "killswitch-hostage";
  ]

(* Each mode reaches every core of its rig: the interpreting rig
   translates nothing, the translating rig exactly where guests run. *)
let check_translations name ~fast ~slow =
  Alcotest.(check int) (name ^ ": interpreted translations") 0 (translations slow);
  Alcotest.(check bool)
    (name ^ ": translated")
    (List.mem name translating)
    (translations fast > 0)

(* A rig collects a profile exactly when its mode profiles and its
   guests run. *)
let check_profiled name ~profiled o =
  Alcotest.(check bool)
    (name ^ ": profiled")
    (profiled && List.mem name translating)
    (Option.is_some o.Scenarios.profile)

(* Everything the golden and the pinned-byte suites read off an outcome,
   compared between two rigs of the same (name, seed). *)
let check_outcomes name (a : Scenarios.outcome) (b : Scenarios.outcome) =
  let check what = Alcotest.(check string) (name ^ ": " ^ what) in
  check "verdict" a.Scenarios.verdict b.Scenarios.verdict;
  check "recovery" a.Scenarios.recovery b.Scenarios.recovery;
  Alcotest.(check int)
    (name ^ ": faults injected")
    a.Scenarios.faults_injected b.Scenarios.faults_injected;
  Alcotest.(check int) (name ^ ": recoveries") a.Scenarios.recoveries b.Scenarios.recoveries;
  Alcotest.(check bool)
    (name ^ ": final level") true
    (a.Scenarios.final_level = b.Scenarios.final_level);
  Alcotest.(check bool)
    (name ^ ": adversary metrics") true
    (a.Scenarios.adversary = b.Scenarios.adversary);
  check "summary" (Scenarios.summary a) (Scenarios.summary b);
  check "trace" a.Scenarios.trace b.Scenarios.trace;
  check "snapshots" (render_snapshots a) (render_snapshots b)

(* ------------------------- golden scenarios ------------------------ *)

(* One run names no mode, so it takes [Core.default_mode], which
   translates and does not profile; the other interprets. *)
let test_scenarios_identical () =
  List.iter
    (fun name ->
      let fast = Scenarios.run name ~seed:matrix_seed in
      let slow = Scenarios.run name ~seed:matrix_seed ~mode:(mode ~jit:false) in
      check_translations name ~fast ~slow;
      check_profiled name ~profiled:false fast;
      check_outcomes name slow fast)
    Scenarios.names

(* The default-mode replay against an interpreting rig and against a
   rig that translates and profiles: monitoring samples every registry,
   so a mode that moved any counter or event would show here. *)
let test_monitored_identical () =
  List.iter
    (fun name ->
      let fast = Scenarios.run_monitored name ~seed:matrix_seed in
      let slow = Scenarios.run_monitored name ~seed:matrix_seed ~mode:(mode ~jit:false) in
      let profiled =
        Scenarios.run_monitored name ~seed:matrix_seed ~mode:{ Core.jit = true; profile = true }
      in
      check_translations name ~fast:fast.Scenarios.base ~slow:slow.Scenarios.base;
      check_translations name ~fast:profiled.Scenarios.base ~slow:slow.Scenarios.base;
      check_profiled name ~profiled:false fast.Scenarios.base;
      check_profiled name ~profiled:true profiled.Scenarios.base;
      List.iter
        (fun (what, (other : Scenarios.monitored)) ->
          let name = Printf.sprintf "%s (%s)" name what in
          check_outcomes name other.Scenarios.base fast.Scenarios.base;
          Alcotest.(check (list (triple string string (float 0.0))))
            (name ^ ": alerts") other.Scenarios.alerts fast.Scenarios.alerts;
          Alcotest.(check (option string))
            (name ^ ": incident json")
            other.Scenarios.incident_json fast.Scenarios.incident_json;
          Alcotest.(check (option string))
            (name ^ ": incident text")
            other.Scenarios.incident_text fast.Scenarios.incident_text;
          Alcotest.(check (option (float 0.0)))
            (name ^ ": detection latency")
            other.Scenarios.detection_latency_s fast.Scenarios.detection_latency_s)
        [ ("interpreted", slow); ("profiled", profiled) ])
    Scenarios.names

(* An interpreting rig and a translating rig in one process at once: a
   spawned domain plays the translating scenarios interpreted while this
   domain plays them translated.  The modes live on the machines, so
   neither run can see the other's, and each pair matches byte for
   byte. *)
let test_side_by_side () =
  let play ~jit =
    List.map (fun name -> Scenarios.run name ~seed:matrix_seed ~mode:(mode ~jit)) translating
  in
  let interpreter = Domain.spawn (fun () -> play ~jit:false) in
  let translated = play ~jit:true in
  let interpreted = Domain.join interpreter in
  List.iter2
    (fun slow fast ->
      let name = fast.Scenarios.scenario in
      Alcotest.(check string) (name ^ ": trace") slow.Scenarios.trace fast.Scenarios.trace;
      Alcotest.(check string)
        (name ^ ": snapshots")
        (render_snapshots slow) (render_snapshots fast);
      check_translations name ~fast ~slow)
    interpreted translated

(* ------------------------- driver equivalence ---------------------- *)

let result_base = 4 * 256

let run_benign ~fast =
  let m = Machine.create () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations:2_000) in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  let e = Engine.create () in
  (if fast then
     ignore
       (Engine.every_batch e ~period:1.0 ~batch:64 (fun () ->
            Machine.run_cores m ~cycles:4096 > 0))
   else ignore (Engine.every e ~period:1.0 (fun () -> Machine.run_models m ~quantum:1 > 0)));
  Engine.run e;
  let c = Machine.model_core m 0 in
  Core.pause c;
  let hits, _fills = Core.predecode_stats c in
  ( Core.cycles c,
    Core.instructions_retired c,
    List.init 16 (Core.read_reg c),
    List.init 8 (fun i -> Dram.read (Machine.model_dram m) (result_base + i)),
    hits )

let test_batched_driver_equivalent () =
  let fc, fr, fregs, fmem, fhits = run_benign ~fast:true in
  let lc, lr, lregs, lmem, _ = run_benign ~fast:false in
  Alcotest.(check int) "cycles" lc fc;
  Alcotest.(check int) "instructions retired" lr fr;
  Alcotest.(check (list int64)) "registers" lregs fregs;
  Alcotest.(check (list int64)) "result memory" lmem fmem;
  (* Non-vacuity: the batched run reused cached ops. *)
  Alcotest.(check bool) "fast path hit the cache" true (fhits > 0)

(* --------------------------- invalidation -------------------------- *)

(* A two-instruction guest whose first word we patch between runs; if a
   stale cached op ever executed, r1 would keep its old value. *)
let patchable = [ Isa.Movi (1, 11); Isa.Halt ]

let test_flip_bit_invalidates () =
  let m = Machine.create () in
  let p = Asm.instrs patchable in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  let c = Machine.model_core m 0 in
  ignore (Core.run c ~fuel:10);
  Alcotest.(check int64) "before flip" 11L (Core.read_reg c 1);
  (* Flip bit 4 of the immediate field: 11 lxor 16 = 27 — the same
     entry point Fault_plan's DRAM flips use. *)
  Dram.flip_bit (Machine.model_dram m) ~addr:p.Asm.origin ~bit:4;
  Core.set_pc c p.Asm.origin;
  Core.resume c;
  ignore (Core.run c ~fuel:10);
  Alcotest.(check int64) "after flip" 27L (Core.read_reg c 1)

let test_patch_invalidates () =
  let m = Machine.create () in
  let p = Asm.instrs patchable in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  let c = Machine.model_core m 0 in
  ignore (Core.run c ~fuel:10);
  Alcotest.(check int64) "first run" 11L (Core.read_reg c 1);
  (* Hypervisor-style patch over the private bus. *)
  Machine.inspect_write m p.Asm.origin
    (Guillotine_isa.Encoding.encode (Isa.Movi (1, 22)));
  Core.set_pc c p.Asm.origin;
  Core.resume c;
  ignore (Core.run c ~fuel:10);
  Alcotest.(check int64) "patched run" 22L (Core.read_reg c 1)

let test_restore_then_patch () =
  let m = Machine.create () in
  let p = Asm.instrs patchable in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  let c = Machine.model_core m 0 in
  Core.pause c;
  let snap = Snapshot.capture m in
  Core.resume c;
  ignore (Core.run c ~fuel:10);
  Alcotest.(check int64) "first run" 11L (Core.read_reg c 1);
  (* Roll back to the pre-run checkpoint, then patch the restored
     image before resuming: the core compiled [movi r1, 11] on the
     abandoned timeline, and must not execute it on this one. *)
  Snapshot.restore m snap;
  Dram.write (Machine.model_dram m) p.Asm.origin
    (Guillotine_isa.Encoding.encode (Isa.Movi (1, 22)));
  Core.resume c;
  ignore (Core.run c ~fuel:10);
  Alcotest.(check int64) "restored-then-patched run" 22L (Core.read_reg c 1)

(* ----------------------- block translation ------------------------ *)

module Hypervisor = Guillotine_hv.Hypervisor
module Iommu = Guillotine_memory.Iommu
module Mmu = Guillotine_memory.Mmu
module Encoding = Guillotine_isa.Encoding

(* Random programs over the FULL instruction space, but with control
   flow confined to the code region (targets in 0..len+4: past-the-end
   targets exercise the Nop-slide / fall-off-code paths) and load/store
   offsets small enough to hit both mapped data pages and unmapped
   space.  Whatever the program does — loop forever, trap, fall off its
   own image — translated and interpreted execution must agree on every
   piece of simulated state. *)
let gen_program =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let len = 24 in
  let target = int_range 0 (len + 4) in
  let off = int_range 0 2048 in
  let line = int_range 0 7 in
  let imm =
    oneof
      [ int_range (-64) 64;
        oneofl [ 0; 1; -1; 0x7FFF_FFFF; -0x8000_0000 ] ]
  in
  let instr =
    oneof
      [
        return Isa.Nop;
        return Isa.Halt;
        return Isa.Iret;
        return Isa.Fence;
        map2 (fun r v -> Isa.Movi (r, v)) reg imm;
        map2 (fun r v -> Isa.Movhi (r, v)) reg imm;
        map2 (fun a b -> Isa.Mov (a, b)) reg reg;
        map3 (fun a b c -> Isa.Add (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Sub (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Mul (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Div (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Rem (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.And_ (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Or_ (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Xor_ (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Shl (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Shr (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Load (a, b, c)) reg reg off;
        map3 (fun a b c -> Isa.Store (a, b, c)) reg reg off;
        map (fun t -> Isa.Jmp t) target;
        map (fun r -> Isa.Jr r) reg;
        map2 (fun r t -> Isa.Jal (r, t)) reg target;
        map3 (fun a b t -> Isa.Beq (a, b, t)) reg reg target;
        map3 (fun a b t -> Isa.Bne (a, b, t)) reg reg target;
        map3 (fun a b t -> Isa.Blt (a, b, t)) reg reg target;
        map3 (fun a b t -> Isa.Bge (a, b, t)) reg reg target;
        map (fun l -> Isa.Irq l) line;
        map (fun r -> Isa.Mfepc r) reg;
        map (fun r -> Isa.Mtepc r) reg;
        map (fun r -> Isa.Rdcycle r) reg;
        map2 (fun r o -> Isa.Clflush (r, o)) reg off;
      ]
  in
  list_repeat len instr

let print_program instrs =
  String.concat "; " (List.map Isa.to_string instrs)

(* Install [instrs] on model core 0 through the hypervisor, whose CFG
   block plan makes the image block-translatable. *)
let hv_install m instrs =
  let hv = Hypervisor.create ~machine:m () in
  let p = Asm.instrs instrs in
  (match
     Hypervisor.install_program hv ~label:"test" ~core:0 ~code_pages:4 ~data_pages:4 p
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "install rejected");
  p

(* Full end-state capture: registers, pc, cycle count, retirement
   count, a digest of all of model memory, and the complete profile
   accumulators (so translated execution provably attributes every
   cycle to the same (block, class) cell the interpreter does). *)
let run_random ~jit instrs =
  let m = Machine.create ~mode:(mode ~jit) () in
  ignore (hv_install m instrs);
  let c = Machine.model_core m 0 in
  Core.set_profiling c true;
  ignore (Core.run c ~fuel:2_000);
  Core.pause c;
  let digest =
    Machine.measure_model_memory m ~at:0
      ~len:(Dram.size (Machine.model_dram m))
  in
  ( Core.cycles c,
    Core.instructions_retired c,
    Core.get_pc c,
    List.init 16 (Core.read_reg c),
    digest,
    Array.to_list (Core.profile_cycles c),
    Array.to_list (Core.profile_retired c) )

let prop_jit_equivalent =
  QCheck.Test.make ~name:"random programs: translated = interpreted" ~count:60
    (QCheck.make gen_program ~print:print_program)
    (fun instrs -> run_random ~jit:true instrs = run_random ~jit:false instrs)

(* Directed invalidation regressions, mirroring the interpreter trio
   above but through the hypervisor install path so the program is
   eagerly block-translated; each asserts both the architectural result
   and that the stale translation was actually dropped. *)
let run_patch_scenario ~patch =
  let m = Machine.create ~mode:(mode ~jit:true) () in
  let p = hv_install m patchable in
  let c = Machine.model_core m 0 in
  ignore (Core.run c ~fuel:10);
  Alcotest.(check int64) "first run" 11L (Core.read_reg c 1);
  let before = (Core.jit_stats c).Guillotine_microarch.Jit.invalidations in
  patch m p;
  Core.set_pc c p.Asm.origin;
  Core.resume c;
  ignore (Core.run c ~fuel:10);
  let after = (Core.jit_stats c).Guillotine_microarch.Jit.invalidations in
  Alcotest.(check bool) "translation invalidated" true (after > before);
  Core.read_reg c 1

let test_jit_flip_bit () =
  let r =
    run_patch_scenario ~patch:(fun m p ->
        Dram.flip_bit (Machine.model_dram m) ~addr:p.Asm.origin ~bit:4)
  in
  Alcotest.(check int64) "flipped run" 27L r

let test_jit_dma_patch () =
  let r =
    run_patch_scenario ~patch:(fun m p ->
        (* A device patches code through an IOMMU window — the
           dma_sleeper TOCTOU arm — while the stale translation still
           exists. *)
        let iommu = Iommu.create () in
        (match Iommu.grant iommu ~dma_page:0 ~frame:0 ~writable:true with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "iommu grant");
        match
          Machine.dma_write m ~iommu ~dma_addr:p.Asm.origin
            [| Encoding.encode (Isa.Movi (1, 22)) |]
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("dma_write: " ^ e))
  in
  Alcotest.(check int64) "dma-patched run" 22L r

let test_jit_restore_then_patch () =
  let m = Machine.create ~mode:(mode ~jit:true) () in
  let p = hv_install m patchable in
  let c = Machine.model_core m 0 in
  Core.pause c;
  let snap = Snapshot.capture m in
  Core.resume c;
  ignore (Core.run c ~fuel:10);
  Alcotest.(check int64) "first run" 11L (Core.read_reg c 1);
  let before = (Core.jit_stats c).Guillotine_microarch.Jit.invalidations in
  Snapshot.restore m snap;
  Dram.write (Machine.model_dram m) p.Asm.origin
    (Encoding.encode (Isa.Movi (1, 22)));
  Core.resume c;
  ignore (Core.run c ~fuel:10);
  let after = (Core.jit_stats c).Guillotine_microarch.Jit.invalidations in
  Alcotest.(check bool) "translation invalidated" true (after > before);
  Alcotest.(check int64) "restored-then-patched run" 22L (Core.read_reg c 1)

(* Ops bake in their pc (here the jal link), so a cached op may run only
   at the pc it was compiled for.  The code frame is executable at a
   second virtual page [alias] words up, where pc 0 and pc [alias] share
   an interpreter slot: from either page the jal must link to its
   executing pc + 1, and the trace port must see both pcs. *)
let alias = 4096

let run_alias ~jit =
  let m = Machine.create ~mode:(mode ~jit) () in
  ignore (hv_install m [ Isa.Jal (2, 2); Isa.Halt; Isa.Halt ]);
  let c = Machine.model_core m 0 in
  let mmu = Core.mmu c in
  (match Mmu.map mmu ~vpage:(alias / Mmu.page_size mmu) ~frame:0 Mmu.perm_rx with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "alias map");
  let pcs = ref [] in
  Core.add_retire_hook c (fun ~pc _ -> pcs := pc :: !pcs);
  let links =
    List.map
      (fun start ->
        Core.pause c;
        Core.set_pc c start;
        Core.resume c;
        ignore (Core.run c ~fuel:10);
        Core.read_reg c 2)
      [ 0; alias; 0 ]
  in
  (links, List.rev !pcs, Core.cycles c)

let test_alias_links_per_pc () =
  let on = run_alias ~jit:true and off = run_alias ~jit:false in
  List.iter
    (fun (mode, (links, pcs, _)) ->
      Alcotest.(check (list int64))
        (mode ^ ": links") [ 1L; Int64.of_int (alias + 1); 1L ] links;
      Alcotest.(check (list int)) (mode ^ ": retired pcs") [ 0; 2; alias; 2; 0; 2 ] pcs)
    [ ("jit on", on); ("jit off", off) ];
  let cycles (_, _, c) = c in
  Alcotest.(check int) "cycles agree" (cycles off) (cycles on)

(* Every int is a reachable pc: [movhi] sets r1 to 2^62, which [jr]
   lands on as [min_int], a pc whose interpreter slot is slot 0.  With
   translation on the runner executes pc 0, so slot 0 is never filled,
   and its empty marker must not pass for a site at [min_int].  Both
   modes must reach the pinned end state: a fetch page fault at
   [min_int] with no handler, after 508 cycles. *)
let run_never_filled ~jit =
  let m = Machine.create ~mode:(mode ~jit) () in
  ignore (hv_install m [ Isa.Movhi (1, 0x4000_0000); Isa.Jr 1 ]);
  let c = Machine.model_core m 0 in
  ignore (Core.run c ~fuel:100);
  (Core.cycles c, Core.get_pc c, Format.asprintf "%a" Core.pp_status (Core.status c))

let test_never_filled_slot () =
  let expected =
    ( 508,
      min_int,
      Format.asprintf "%a" Core.pp_status
        (Core.Halted (Core.Unhandled_exception (Isa.Page_fault min_int))) )
  in
  let state = Alcotest.(triple int int string) in
  Alcotest.check state "jit on" expected (run_never_filled ~jit:true);
  Alcotest.check state "jit off" expected (run_never_filled ~jit:false)

(* ------------------------------ fetch ------------------------------ *)

module Tlb = Guillotine_memory.Tlb
module Cache = Guillotine_memory.Cache
module Hierarchy = Guillotine_memory.Hierarchy
module Cfg = Guillotine_vet.Cfg

(* Both modes fetch through one hinted fetch, which stands in for
   Tlb.lookup + Mmu.translate_raw + Hierarchy.read_value while its
   remembered TLB entry, MMU generation and L1 way still hold.  Comparing
   the modes cannot catch a hint probe that drifts from those functions,
   so these runs pin every counter the probes move to the values the
   unhinted calls produce for the same programs: a hot loop, a loop that
   straddles a code-page boundary and calls into a third page, and a
   code page remapped between runs (its TLB entry still hits; the MMU
   generation forces a fresh translation). *)

(* [items] places instruction runs at absolute pcs; the gaps are Nops. *)
let placed items =
  let len = List.fold_left (fun n (pc, run) -> max n (pc + List.length run)) 0 items in
  let code = Array.make len Isa.Nop in
  List.iter (fun (pc, run) -> List.iteri (fun i x -> code.(pc + i) <- x) run) items;
  Asm.instrs (Array.to_list code)

(* A bare core over the test_microarch layout (pages 0..3 RX, then
   [data_pages] RW pages from page 4) with the program's CFG block plan
   installed, so block translation runs it when on.  [drive] runs the
   core and returns a result register. *)
let fetch_counters ?(data_pages = 4) ~jit (p : Asm.program) drive =
  let dram = Dram.create ~size:(64 * 1024) in
  let hierarchy = Hierarchy.create ~dram () in
  let tlb = Tlb.create () in
  let c = Core.create ~id:0 ~kind:Core.Model_core ~hierarchy ~tlb ~mode:(mode ~jit) () in
  let mmu = Core.mmu c in
  for page = 0 to 3 + data_pages do
    match Mmu.map mmu ~vpage:page ~frame:page (if page < 4 then Mmu.perm_rx else Mmu.perm_rw) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "map"
  done;
  Dram.load_program dram p;
  let bm = Cfg.block_map (Cfg.build ~code_pages:4 p) in
  Core.install_jit c
    {
      Guillotine_microarch.Jit.code_words = bm.Cfg.map_code_words;
      leaders = bm.Cfg.map_leaders;
      pcs = bm.Cfg.map_pcs;
    };
  let result = drive c in
  let l1 = Hierarchy.l1 hierarchy in
  let tlb_hits, tlb_misses = Tlb.stats tlb and l1_hits, l1_misses = Cache.stats l1 in
  [
    ("result", result);
    ("tlb hits", tlb_hits);
    ("tlb misses", tlb_misses);
    ("tlb clock", tlb.Tlb.clock);
    ("l1 hits", l1_hits);
    ("l1 misses", l1_misses);
    ("l1 clock", l1.Cache.clock);
    ("hierarchy cycles", Hierarchy.cycles_spent hierarchy);
    ("core cycles", Core.cycles c);
    ("retired", Core.instructions_retired c);
  ]

let run_to_halt r c =
  ignore (Core.run c ~fuel:100_000);
  Int64.to_int (Core.read_reg c r)

let hot_loop = Asm.assemble_exn (Guest.compute_loop ~iterations:500)

(* r4 folds the running sum of squares; the loop body spans pcs
   252..260 across the page 0/1 boundary and calls pc 520 on page 2. *)
let page_crossing =
  placed
    [
      (0, [ Isa.Movi (1, 0); Isa.Movi (2, 64); Isa.Movi (5, 1); Isa.Jmp 252 ]);
      ( 252,
        [ Isa.Mul (6, 1, 1); Isa.Add (3, 3, 6); Isa.Nop; Isa.Nop; Isa.Nop; Isa.Nop;
          Isa.Jal (7, 520); Isa.Add (1, 1, 5); Isa.Blt (1, 2, 252); Isa.Halt ] );
      (520, [ Isa.Xor_ (4, 4, 3); Isa.Jr 7 ]);
    ]

(* Page 1 first runs [movi r1, 11; halt] from frame 1, then is remapped
   to frame 3, whose counting loop runs at the same pcs and leaves 22. *)
let remapped =
  placed
    [
      (0, [ Isa.Jmp 256 ]);
      (256, [ Isa.Movi (1, 11); Isa.Halt ]);
      ( 768,
        [ Isa.Movi (1, 20); Isa.Movi (5, 1); Isa.Movi (2, 22); Isa.Add (1, 1, 5);
          Isa.Blt (1, 2, 259); Isa.Halt ] );
    ]

(* Nine lines share L1 set 0 (512-word stride): the code line at pcs
   0..7 and eight data lines the loop loads in turn.  Code fetches hit
   through the site's slot hint, so only if the hint's hit path stamps
   the slot as [Cache.access] would does LRU keep the code line resident
   while the data lines evict each other.  The pinned counters are the
   ones the per-way record cache ([Cache_ref]) gave. *)
let set_thrash =
  Asm.instrs
    ([ Isa.Movi (1, 0); Isa.Movi (2, 40); Isa.Movi (5, 1) ]
    @ List.init 8 (fun k -> Isa.Load (3, 0, 1024 + (512 * k)))
    @ [ Isa.Add (1, 1, 5); Isa.Blt (1, 2, 3); Isa.Halt ])

let run_remapped c =
  Alcotest.(check int) "before remap" 11 (run_to_halt 1 c);
  (match Mmu.map (Core.mmu c) ~vpage:1 ~frame:3 Mmu.perm_rx with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "remap");
  Core.set_pc c 0;
  Core.resume c;
  run_to_halt 1 c

(* With one-word pages every int is a vpage, those of the fetch's
   empty-hint sentinels included, so no first fetch may pass for a TLB
   hit. *)
let test_one_word_pages () =
  let dram = Dram.create ~size:1024 in
  let hierarchy = Hierarchy.create ~dram () in
  let tlb = Tlb.create () and mmu = Mmu.create ~page_size:1 () in
  for page = 0 to 3 do
    match Mmu.map mmu ~vpage:page ~frame:page Mmu.perm_rx with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "map"
  done;
  let c = Core.create ~id:0 ~kind:Core.Model_core ~hierarchy ~tlb ~mmu () in
  Dram.load_program dram (Asm.instrs [ Isa.Movi (1, 1); Isa.Movi (2, 2); Isa.Halt ]);
  ignore (Core.run c ~fuel:10);
  Alcotest.(check (pair int int)) "tlb hits, misses" (0, 3) (Tlb.stats tlb)

let test_fetch_keeps_lru_order () =
  let pinned = Alcotest.(list (pair string int)) in
  let expected =
    [ ("result", 40); ("tlb hits", 715); ("tlb misses", 9); ("tlb clock", 724);
      ("l1 hits", 411); ("l1 misses", 330); ("l1 clock", 741); ("hierarchy cycles", 9441);
      ("core cycles", 10275); ("retired", 404) ]
  in
  Alcotest.check pinned "jit off" expected
    (fetch_counters ~data_pages:16 ~jit:false set_thrash (run_to_halt 1));
  Alcotest.check pinned "jit on" expected
    (fetch_counters ~data_pages:16 ~jit:true set_thrash (run_to_halt 1))

let test_fetch_counters_pinned () =
  let pinned = Alcotest.(list (pair string int)) in
  List.iter
    (fun (name, p, drive, expected) ->
      Alcotest.check pinned (name ^ ", jit off") expected (fetch_counters ~jit:false p drive);
      Alcotest.check pinned (name ^ ", jit on") expected (fetch_counters ~jit:true p drive))
    [
      ( "hot loop",
        hot_loop,
        run_to_halt 3,
        [ ("result", 41541750); ("tlb hits", 2007); ("tlb misses", 2); ("tlb clock", 2009);
          ("l1 hits", 2012); ("l1 misses", 4); ("l1 clock", 2016); ("hierarchy cycles", 2936);
          ("core cycles", 7778); ("retired", 2008) ] );
      ( "page crossing",
        page_crossing,
        run_to_halt 4,
        [ ("result", 18336); ("tlb hits", 706); ("tlb misses", 3); ("tlb clock", 709);
          ("l1 hits", 713); ("l1 misses", 4); ("l1 clock", 717); ("hierarchy cycles", 1637);
          ("core cycles", 3258); ("retired", 709) ] );
      ( "remapped page",
        remapped,
        run_remapped,
        [ ("result", 22); ("tlb hits", 10); ("tlb misses", 2); ("tlb clock", 12);
          ("l1 hits", 12); ("l1 misses", 3); ("l1 clock", 15); ("hierarchy cycles", 705);
          ("core cycles", 788); ("retired", 12) ] );
    ]

(* --------------------------- retire hooks -------------------------- *)

module Detector = Guillotine_detect.Detector
module Flight_recorder = Guillotine_microarch.Flight_recorder

(* The trace port under the block runner.  A timing-probe guest
   installed through the hypervisor with the probe monitor, a flight
   recorder and a (pc, instr) logger all attached: an interpreting rig
   and a translating rig must show the hooks one stream and the
   detectors the same probe densities. *)
let run_hooked ~jit =
  let m = Machine.create ~mode:(mode ~jit) () in
  let densities = ref [] in
  let densities_seen =
    {
      Detector.name = "densities";
      observe =
        (fun obs ->
          (match obs with
          | Detector.Probe_activity { core; density } ->
            densities := (core, density) :: !densities
          | _ -> ());
          Detector.Clear);
    }
  in
  let hv = Hypervisor.create ~machine:m ~detectors:[ densities_seen ] () in
  Hypervisor.enable_probe_monitor hv;
  let c = Machine.model_core m 0 in
  let fr = Flight_recorder.attach c ~depth:32 () in
  let stream = ref [] in
  Core.add_retire_hook c (fun ~pc instr -> stream := (pc, instr) :: !stream);
  let p = Asm.assemble_exn (Guest.timing_probe ~iterations:300) in
  (match
     Hypervisor.install_program hv ~label:"probe" ~core:0 ~code_pages:4 ~data_pages:4 p
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "install rejected");
  ignore (Core.run c ~fuel:100_000);
  Alcotest.(check bool)
    "ran to halt" true (Core.status c = Core.Halted Core.Halt_instruction);
  let js = Core.jit_stats c in
  Alcotest.(check bool)
    "block runner reached exactly when translating" jit
    (js.Guillotine_microarch.Jit.translations > 0
    && js.Guillotine_microarch.Jit.block_exits > 0);
  ( List.rev !stream,
    Flight_recorder.recorded fr,
    List.map
      (fun e -> (e.Flight_recorder.pc, e.Flight_recorder.instr))
      (Flight_recorder.dump fr),
    List.rev !densities,
    Core.instructions_retired c )

let test_hooks_under_block_runner () =
  let s_int, n_int, fr_int, d_int, r_int = run_hooked ~jit:false in
  let s_jit, n_jit, fr_jit, d_jit, r_jit = run_hooked ~jit:true in
  Alcotest.(check int) "retired" r_int r_jit;
  Alcotest.(check int) "hook saw every retirement" r_jit (List.length s_jit);
  Alcotest.(check bool) "same (pc, instr) stream" true (s_int = s_jit);
  Alcotest.(check int) "flight recorder count" n_int n_jit;
  Alcotest.(check bool) "flight recorder dump" true (fr_int = fr_jit);
  Alcotest.(check bool) "probe monitor fired" true (d_jit <> []);
  Alcotest.(check (list (pair int (float 0.)))) "probe densities" d_int d_jit

(* ---------------------------- allocation --------------------------- *)

(* Host allocation per retired guest instruction, in minor words.  Ops
   read and write an unboxed register file and retire inline, so the
   compute loop's mul/add/add/blt body allocates nothing on either
   execution path: what a run still allocates is its set-up and its one
   store, about 0.0004 words per instruction on each path.  The
   two-block loop ends a translated block every second instruction, so
   it also holds the block runner's per-block dispatch to no
   allocation.  A warm-up run to halt fills the sites (and,
   translating, the blocks) before the counted re-run from entry. *)
let two_block_loop_source =
  {|
  jmp @start
  .zero 7
  .zero 8
start:
  movi r1, 0
  movi r2, 30000
  movi r5, 1
loop:
  add  r1, r1, r5
  beq  r1, r1, @next
next:
  add  r3, r3, r5
  blt  r1, r2, @loop
  halt
|}

let words_per_instr ~jit source =
  let m = Machine.create ~mode:(mode ~jit) () in
  let hv = Hypervisor.create ~machine:m () in
  let p = Asm.assemble_exn source in
  (match
     Hypervisor.install_program hv ~label:"compute" ~core:0 ~code_pages:4 ~data_pages:4 p
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "install rejected");
  let c = Machine.model_core m 0 in
  ignore (Core.run c ~fuel:max_int);
  Core.set_pc c p.Asm.origin;
  Core.resume c;
  let before = Gc.minor_words () in
  let retired = Core.run c ~fuel:max_int in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    "ran to halt" true (Core.status c = Core.Halted Core.Halt_instruction);
  Alcotest.(check bool) "at least 100k instructions" true (retired >= 100_000);
  Alcotest.(check bool)
    "translated exactly when the mode says so" jit
    ((Core.jit_stats c).Guillotine_microarch.Jit.translations > 0);
  words /. float_of_int retired

let test_compute_allocation_budget () =
  List.iter
    (fun (loop, source) ->
      List.iter
        (fun (jit, name) ->
          let w = words_per_instr ~jit source in
          if w > 0.01 then
            Alcotest.failf "%s %s allocates %.4f words per instruction (budget 0.01)"
              name loop w)
        [ (false, "interpreted"); (true, "translated") ])
    [ ("compute loop", Guest.compute_loop ~iterations:30_000);
      ("two-block loop", two_block_loop_source) ]

(* The pure control-flow guest of bench/perf.ml's fetch-loop row (nops
   and a jmp, no Int64 in sight): once its ops are cached, fetching and
   executing allocates nothing at all. *)
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

let test_fetch_loop_allocates_nothing () =
  let m = Machine.create () in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4
    (Asm.assemble_exn fetch_loop_source);
  let c = Machine.model_core m 0 in
  ignore (Core.run c ~fuel:1024);
  let before = Gc.minor_words () in
  let executed = Core.run c ~fuel:100_000 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "executed" 100_000 executed;
  Alcotest.(check (float 0.)) "minor words" 0. words

let () =
  Alcotest.run "perf_equiv"
    [
      ( "scenarios",
        [
          Alcotest.test_case "golden scenarios identical" `Quick
            test_scenarios_identical;
          Alcotest.test_case "monitored replays identical" `Quick
            test_monitored_identical;
          Alcotest.test_case "interpreted and translated rigs side by side" `Quick
            test_side_by_side;
        ] );
      ( "driver",
        [
          Alcotest.test_case "batched = quantum-1" `Quick
            test_batched_driver_equivalent;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "flip_bit" `Quick test_flip_bit_invalidates;
          Alcotest.test_case "hypervisor patch" `Quick test_patch_invalidates;
          Alcotest.test_case "restore then patch" `Quick test_restore_then_patch;
        ] );
      ( "jit",
        [
          QCheck_alcotest.to_alcotest prop_jit_equivalent;
          Alcotest.test_case "flip_bit invalidates translation" `Quick
            test_jit_flip_bit;
          Alcotest.test_case "dma patch invalidates translation" `Quick
            test_jit_dma_patch;
          Alcotest.test_case "restore then patch invalidates translation" `Quick
            test_jit_restore_then_patch;
          Alcotest.test_case "aliased code links per pc" `Quick test_alias_links_per_pc;
          Alcotest.test_case "never-filled slot at min_int" `Quick test_never_filled_slot;
        ] );
      ( "fetch",
        [
          Alcotest.test_case "hinted fetch counters pinned" `Quick test_fetch_counters_pinned;
          Alcotest.test_case "one-word pages miss first" `Quick test_one_word_pages;
          Alcotest.test_case "hinted fetch keeps LRU order" `Quick test_fetch_keeps_lru_order;
        ] );
      ( "retire hooks",
        [
          Alcotest.test_case "hooks see one stream in both modes" `Quick
            test_hooks_under_block_runner;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "compute loop words per instruction" `Quick
            test_compute_allocation_budget;
          Alcotest.test_case "fetch loop allocates nothing" `Quick
            test_fetch_loop_allocates_nothing;
        ] );
    ]
