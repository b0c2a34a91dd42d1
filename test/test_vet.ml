(* Tests for the admission-time static verifier (lib/vet) and its
   integration into the hypervisor load path:

   - corpus verdicts: every benign golden guest admits (zero false
     positives), every adversarial guest rejects — statically
   - report determinism: text and JSON byte-identical across runs,
     pinned against a golden report
   - abstract-interpreter soundness: guests whose memory accesses were
     all proven in-bounds run without a page fault
   - CFG/absint behaviour: indirect-jump resolution by constant
     propagation, conservative widening of unresolved ones
   - the hypervisor admission gate: enforcement, warnings,
     telemetry counters, event-sink and audit-chain records *)

module Asm = Guillotine_isa.Asm
module Isa = Guillotine_isa.Isa
module Cfg = Guillotine_vet.Cfg
module Absint = Guillotine_vet.Absint
module Lints = Guillotine_vet.Lints
module Vet = Guillotine_vet.Vet
module Summary = Guillotine_vet.Summary
module Interfere = Guillotine_vet.Interfere
module Corpus = Guillotine_core.Vet_corpus
module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core
module Mmu = Guillotine_memory.Mmu
module Hypervisor = Guillotine_hv.Hypervisor
module Audit = Guillotine_hv.Audit
module Telemetry = Guillotine_telemetry.Telemetry
module Guest = Guillotine_model.Guest_programs

let verdict = Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Vet.verdict_label v))
    ( = )

(* ------------------------------------------------------------------ *)
(* Corpus verdicts                                                     *)
(* ------------------------------------------------------------------ *)

let test_corpus_verdicts () =
  List.iter
    (fun (e : Corpus.entry) ->
      let r = Corpus.vet e in
      Alcotest.check verdict e.Corpus.name e.Corpus.expected r.Vet.verdict)
    Corpus.all

(* Zero false positives: no benign guest produces a single Error-level
   finding. *)
let test_benign_zero_errors () =
  List.iter
    (fun (e : Corpus.entry) ->
      if not e.Corpus.malicious then
        let r = Corpus.vet e in
        Alcotest.(check int)
          (e.Corpus.name ^ " errors")
          0
          (List.length (Vet.errors r)))
    Corpus.all

(* The corpus draws the admission line: malicious guests expected to
   reject must reject, and the post-admission adversaries — malicious
   yet [expected] Admit/Admit_with_warnings because they only turn
   hostile after install — must genuinely slip past the vetter.  A
   rejected TOCTOU guest is a corpus bug (the attack would never reach
   the runtime defences it exists to exercise). *)
let test_malicious_all_reject () =
  List.iter
    (fun (e : Corpus.entry) ->
      if e.Corpus.malicious && e.Corpus.expected = Vet.Reject then
        let r = Corpus.vet e in
        Alcotest.check verdict (e.Corpus.name ^ " rejects") Vet.Reject
          r.Vet.verdict)
    Corpus.all

let test_adversarial_all_admit () =
  let admitted =
    List.filter
      (fun (e : Corpus.entry) ->
        e.Corpus.malicious && e.Corpus.expected <> Vet.Reject)
      Corpus.all
  in
  Alcotest.(check int) "six post-admission adversaries" 6
    (List.length admitted);
  List.iter
    (fun (e : Corpus.entry) ->
      let r = Corpus.vet e in
      Alcotest.(check bool)
        (e.Corpus.name ^ " admits despite being malicious")
        true
        (r.Vet.verdict <> Vet.Reject))
    admitted

(* ------------------------------------------------------------------ *)
(* Determinism & golden report                                         *)
(* ------------------------------------------------------------------ *)

let test_reports_deterministic () =
  List.iter
    (fun (e : Corpus.entry) ->
      let a = Corpus.vet e and b = Corpus.vet e in
      Alcotest.(check string) (e.Corpus.name ^ " text") (Vet.to_text a)
        (Vet.to_text b);
      Alcotest.(check string) (e.Corpus.name ^ " json") (Vet.to_json a)
        (Vet.to_json b))
    Corpus.all

let golden_text =
  "VET self-improve: REJECT\n\
   image            26 words (11 reachable instructions)\n\
   grant            4 code + 4 data pages, 0 extra windows\n\
   analysis         1 indirect rounds, 0 widenings\n\
   findings         1 error, 0 warn, 0 info\n\
  \  [error] mem.store_escape               @18    store address [16, 16] \
   is provably outside every granted window\n"

let golden_json =
  {|{"label":"self-improve","verdict":"reject","image_words":26,"instr_count":11,"code_pages":4,"data_pages":4,"extra_windows":0,"indirect_rounds":1,"widenings":0,"counts":{"error":1,"warn":0,"info":0},"findings":[{"rule":"mem.store_escape","severity":"error","addr":18,"detail":"store address [16, 16] is provably outside every granted window"}]}|}

let test_golden_report () =
  match Corpus.find "self-improve" with
  | None -> Alcotest.fail "self-improve missing from corpus"
  | Some e ->
    let r = Corpus.vet e in
    Alcotest.(check string) "golden text" golden_text (Vet.to_text r);
    Alcotest.(check string) "golden json" golden_json (Vet.to_json r)

(* ------------------------------------------------------------------ *)
(* Soundness: proven-in-bounds guests never page-fault                 *)
(* ------------------------------------------------------------------ *)

(* Every corpus guest admitted with all memory accesses proven
   in-bounds (no mem.* finding at all) must run without tripping a
   page fault: the abstract interpreter's claim, checked concretely. *)
let test_admitted_guests_sound () =
  let proven (r : Vet.report) =
    r.Vet.verdict <> Vet.Reject
    && List.for_all
         (fun (f : Lints.finding) ->
           not (String.length f.Lints.rule >= 4
                && String.sub f.Lints.rule 0 4 = "mem."))
         r.Vet.findings
  in
  let checked = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      let r = Corpus.vet e in
      if proven r then begin
        incr checked;
        let m = Machine.create () in
        let p = Asm.assemble_exn e.Corpus.source in
        Machine.install_program m ~core:0 ~code_pages:e.Corpus.code_pages
          ~data_pages:e.Corpus.data_pages p;
        (* Map the granted IO windows the vetter was told about. *)
        List.iter
          (fun (w : Absint.range) ->
            Machine.map_io_page m ~core:0 ~vpage:(w.Absint.base / 256)
              ~io_page:0 Mmu.perm_rw)
          e.Corpus.extra;
        let core = Machine.model_core m 0 in
        ignore (Core.run core ~fuel:50_000);
        match Core.halt_reason core with
        | Some (Core.Unhandled_exception (Isa.Page_fault at)) ->
          Alcotest.failf "%s: admitted as in-bounds but page-faulted at %d"
            e.Corpus.name at
        | Some Core.Double_fault ->
          Alcotest.failf "%s: admitted as in-bounds but double-faulted"
            e.Corpus.name
        | _ -> ()
      end)
    Corpus.all;
  (* The check must actually cover the fully-proven benign guests. *)
  Alcotest.(check bool) "covered at least two guests" true (!checked >= 2)

(* ------------------------------------------------------------------ *)
(* CFG / abstract interpretation behaviour                             *)
(* ------------------------------------------------------------------ *)

(* A jr whose operand is a constant resolves by constant propagation:
   the program is fully analysed and admits cleanly. *)
let test_jr_constant_resolves () =
  let src = {|
  jmp @start
  .zero 15
start:
  movi r1, @finish
  jr   r1
  nop
finish:
  halt
|}
  in
  let r = Vet.run ~label:"jr-const" ~code_pages:1 ~data_pages:1
      (Asm.assemble_exn src)
  in
  Alcotest.check verdict "admits" Vet.Admit r.Vet.verdict;
  Alcotest.(check bool) "took >1 indirect round" true (r.Vet.indirect_rounds > 1)

(* A jr on a loaded (unknowable) value is widened conservatively and
   surfaces as a warning, not silence. *)
let test_jr_unresolved_warns () =
  let src = {|
  jmp @start
  .zero 15
start:
  movi r1, 256
  load r2, r1, 0
  jr   r2
|}
  in
  let r = Vet.run ~label:"jr-unknown" ~code_pages:2 ~data_pages:1
      (Asm.assemble_exn src)
  in
  Alcotest.(check bool) "unresolved indirect flagged" true
    (List.exists
       (fun (f : Lints.finding) -> f.Lints.rule = "cfg.unresolved_indirect")
       r.Vet.findings);
  Alcotest.check verdict "admit with warnings" Vet.Admit_with_warnings
    r.Vet.verdict

(* Interval refinement across a loop branch proves a striding store
   in-bounds; nudging the bound one page over turns it into a provable
   escape. *)
let test_interval_refinement_bounds_loop () =
  let body bound = Printf.sprintf {|
  jmp @start
  .zero 15
start:
  movi r1, 256
  movi r2, %d
  movi r5, 1
loop:
  store r1, r5, 0
  add  r1, r1, r5
  blt  r1, r2, @loop
  halt
|} bound
  in
  let in_bounds =
    Vet.run ~label:"stride-ok" ~code_pages:1 ~data_pages:1
      (Asm.assemble_exn (body 512))
  in
  Alcotest.check verdict "striding store admits" Vet.Admit
    in_bounds.Vet.verdict;
  let escaping =
    Vet.run ~label:"stride-escape" ~code_pages:1 ~data_pages:1
      (Asm.assemble_exn (body 1024))
  in
  Alcotest.(check bool) "over-page store flagged" true
    (List.exists
       (fun (f : Lints.finding) ->
         f.Lints.rule = "mem.store_may_escape"
         || f.Lints.rule = "mem.store_escape")
       escaping.Vet.findings)

let test_doorbell_budget_boundary () =
  let flood count =
    Vet.run ~label:"flood" ~code_pages:4 ~data_pages:4
      (Asm.assemble_exn (Guest.irq_flood ~count ~line:0))
  in
  (* Within the budget: bounded loop, admitted (Info finding only). *)
  let small = flood 64 in
  Alcotest.check verdict "64 rings admit" Vet.Admit small.Vet.verdict;
  Alcotest.(check bool) "bounded finding present" true
    (List.exists
       (fun (f : Lints.finding) -> f.Lints.rule = "doorbell.bounded")
       small.Vet.findings);
  (* One over: rejected. *)
  let big = flood 65 in
  Alcotest.check verdict "65 rings reject" Vet.Reject big.Vet.verdict

(* ------------------------------------------------------------------ *)
(* Hypervisor admission gate                                           *)
(* ------------------------------------------------------------------ *)

let counter_value hv name =
  Telemetry.counter_value (Telemetry.counter (Hypervisor.telemetry hv) name)

let make_hv () =
  let m = Machine.create () in
  (m, Hypervisor.create ~machine:m ())

let test_gate_rejects_and_blocks_install () =
  let m, hv = make_hv () in
  let events = ref [] in
  Hypervisor.set_event_sink hv (fun ~kind detail ->
      events := (kind, detail) :: !events);
  let p = Asm.assemble_exn Guest.self_improve_attempt in
  (match
     Hypervisor.install_program hv
       ~vet_policy:Hypervisor.default_vet_policy ~label:"rogue" ~core:0
       ~code_pages:4 ~data_pages:4 p
   with
  | Error r -> Alcotest.check verdict "rejected" Vet.Reject r.Vet.verdict
  | Ok _ -> Alcotest.fail "malicious guest admitted");
  (* Nothing was installed: model DRAM still zero at the image start. *)
  Alcotest.(check int64) "no image in DRAM" 0L
    (Guillotine_memory.Dram.read (Machine.model_dram m) 0);
  Alcotest.(check int) "vet.rejected" 1 (counter_value hv "vet.rejected");
  Alcotest.(check int) "vet.admitted" 0 (counter_value hv "vet.admitted");
  Alcotest.(check bool) "vet.decision event emitted" true
    (List.exists (fun (k, _) -> k = "vet.decision") !events);
  let decisions =
    Audit.find (Hypervisor.audit hv) (function
      | Audit.Vet_decision { verdict = "reject"; label = "rogue"; _ } -> true
      | _ -> false)
  in
  Alcotest.(check int) "audit records the rejection" 1 (List.length decisions)

let test_gate_admits_benign () =
  let m, hv = make_hv () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations:8) in
  (match
     Hypervisor.install_program hv
       ~vet_policy:Hypervisor.default_vet_policy ~label:"benign" ~core:0
       ~code_pages:4 ~data_pages:4 p
   with
  | Ok (Some r) -> Alcotest.check verdict "admitted" Vet.Admit r.Vet.verdict
  | Ok None -> Alcotest.fail "expected a report"
  | Error _ -> Alcotest.fail "benign guest rejected");
  Alcotest.(check int) "vet.admitted" 1 (counter_value hv "vet.admitted");
  Alcotest.(check int) "vet.rejected" 0 (counter_value hv "vet.rejected");
  (* And it actually runs to completion. *)
  let core = Machine.model_core m 0 in
  ignore (Core.run core ~fuel:10_000);
  Alcotest.(check bool) "halted normally" true
    (Core.halt_reason core = Some Core.Halt_instruction)

let test_gate_unvetted_passthrough () =
  let _, hv = make_hv () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations:8) in
  (match
     Hypervisor.install_program hv ~core:0 ~code_pages:4 ~data_pages:4 p
   with
  | Ok None -> ()
  | _ -> Alcotest.fail "unvetted install should return Ok None");
  (* No counters spring into existence for the unvetted path. *)
  let snapshot = Hypervisor.metrics hv in
  Alcotest.(check bool) "no vet counters in snapshot" true
    (List.for_all
       (fun (name, _) ->
         not (String.length name >= 4 && String.sub name 0 4 = "vet."))
       snapshot.Telemetry.values)

let test_gate_warnings_counted () =
  let _, hv = make_hv () in
  let e =
    match Corpus.find "preemptive-scheduler" with
    | Some e -> e
    | None -> Alcotest.fail "preemptive-scheduler missing"
  in
  let p = Asm.assemble_exn e.Corpus.source in
  (match
     Hypervisor.install_program hv ~vet_policy:Hypervisor.default_vet_policy
       ~label:"scheduler" ~core:0 ~code_pages:e.Corpus.code_pages
       ~data_pages:e.Corpus.data_pages p
   with
  | Ok (Some r) ->
    Alcotest.check verdict "admitted with warnings" Vet.Admit_with_warnings
      r.Vet.verdict
  | _ -> Alcotest.fail "expected admission with warnings");
  Alcotest.(check int) "vet.admitted" 1 (counter_value hv "vet.admitted");
  Alcotest.(check int) "vet.warnings" 1 (counter_value hv "vet.warnings")

(* ------------------------------------------------------------------ *)
(* Window normalization: adjacent and zero-length grants               *)
(* ------------------------------------------------------------------ *)

let range base len = { Absint.base; len; writable = true }

let test_normalize_touching_windows () =
  (match Absint.normalize_windows [ range 4 4; range 0 4 ] with
  | [ w ] ->
    Alcotest.(check int) "merged base" 0 w.Absint.base;
    Alcotest.(check int) "merged len" 8 w.Absint.len
  | ws ->
    Alcotest.failf "touching windows should coalesce to one, got %d"
      (List.length ws));
  (match Absint.normalize_windows [ range 0 6; range 4 4 ] with
  | [ w ] -> Alcotest.(check int) "overlap merged len" 8 w.Absint.len
  | ws ->
    Alcotest.failf "overlapping windows should coalesce to one, got %d"
      (List.length ws));
  Alcotest.(check int) "zero- and negative-length grants drop" 0
    (List.length (Absint.normalize_windows [ range 7 0; range 9 (-2) ]));
  (* A gap of one word keeps the windows apart. *)
  Alcotest.(check int) "gapped windows stay separate" 2
    (List.length (Absint.normalize_windows [ range 0 4; range 5 4 ]))

let test_classify_spans_touching_windows () =
  let windows = [ range 0 4; range 4 4 ] in
  Alcotest.(check bool) "access spanning the seam is in-bounds" true
    (Absint.classify windows { Absint.lo = 2; hi = 6 } = Absint.In_bounds);
  Alcotest.(check bool) "spilling past the merged extent is not" true
    (Absint.classify windows { Absint.lo = 2; hi = 8 } <> Absint.In_bounds);
  Alcotest.(check bool) "zero-length window grants nothing" true
    (Absint.classify [ range 0 0 ] { Absint.lo = 0; hi = 0 } = Absint.Escapes)

(* ------------------------------------------------------------------ *)
(* Co-admission: roster verdicts and named findings                    *)
(* ------------------------------------------------------------------ *)

let test_roster_verdicts () =
  List.iter
    (fun (r : Corpus.roster) ->
      let rep = Corpus.coadmit r in
      Alcotest.check verdict r.Corpus.roster_name r.Corpus.expect
        rep.Interfere.verdict)
    Corpus.coadmit_rosters

(* Zero false positives at the roster level: every all-benign (or
   runtime-only-adversary) roster co-admits without a single finding. *)
let test_benign_rosters_zero_findings () =
  List.iter
    (fun (r : Corpus.roster) ->
      if r.Corpus.expect <> Vet.Reject then
        let rep = Corpus.coadmit r in
        Alcotest.(check int)
          (r.Corpus.roster_name ^ " findings")
          0
          (List.length rep.Interfere.findings))
    Corpus.coadmit_rosters

let coadmit_named name =
  match Corpus.find_roster name with
  | Some r -> Corpus.coadmit r
  | None -> Alcotest.failf "roster %s missing from corpus" name

let has_rule (rep : Interfere.report) rule =
  List.exists (fun (f : Lints.finding) -> f.Lints.rule = rule)
    rep.Interfere.findings

let test_colluding_pair_named_findings () =
  let rep = coadmit_named "colluding-pair" in
  Alcotest.check verdict "rejects" Vet.Reject rep.Interfere.verdict;
  Alcotest.(check bool) "descriptor rewrite named" true
    (has_rule rep "interfere.dma_descriptor_rewrite");
  Alcotest.(check bool) "window overlap named" true
    (has_rule rep "interfere.window_overlap")

let test_sleeper_loader_dma_wx () =
  let rep = coadmit_named "sleeper-loader" in
  Alcotest.check verdict "rejects" Vet.Reject rep.Interfere.verdict;
  Alcotest.(check bool) "W^X across DMA named" true
    (has_rule rep "interfere.dma_wx")

let test_replicator_burst_aggregate () =
  let rep = coadmit_named "replicator-burst" in
  Alcotest.check verdict "rejects" Vet.Reject rep.Interfere.verdict;
  Alcotest.(check bool) "aggregate doorbell named" true
    (has_rule rep "interfere.doorbell_aggregate");
  Alcotest.(check bool) "per-member bounds sum past the budget" true
    (match rep.Interfere.aggregate_doorbell with
    | Some t -> t > 64
    | None -> false)

let test_patch_direct_member_rejected () =
  let rep = coadmit_named "patch-direct" in
  Alcotest.check verdict "rejects" Vet.Reject rep.Interfere.verdict;
  Alcotest.(check bool) "solo rejection propagates" true
    (has_rule rep "interfere.member_rejected")

let test_coadmit_reports_deterministic () =
  List.iter
    (fun (r : Corpus.roster) ->
      let a = Corpus.coadmit r and b = Corpus.coadmit r in
      Alcotest.(check string) (r.Corpus.roster_name ^ " text")
        (Interfere.to_text a) (Interfere.to_text b);
      Alcotest.(check string) (r.Corpus.roster_name ^ " json")
        (Interfere.to_json a) (Interfere.to_json b))
    Corpus.coadmit_rosters

(* ------------------------------------------------------------------ *)
(* Hypervisor co-admission gate                                        *)
(* ------------------------------------------------------------------ *)

let coadmit_spec_of name fb =
  match Corpus.find name with
  | Some e -> Corpus.coadmit_spec ~frame_base:fb e
  | None -> Alcotest.failf "guest %s missing from corpus" name

let test_hv_coadmit_gate () =
  let _, hv = make_hv () in
  let events = ref [] in
  Hypervisor.set_event_sink hv (fun ~kind detail ->
      events := (kind, detail) :: !events);
  (* A benign pair admits and its members become resident, on stripes
     clear of the colluding roster's frames. *)
  (match
     Hypervisor.coadmit hv ~label:"benign"
       [ coadmit_spec_of "compute-loop" 32; coadmit_spec_of "io-request" 48 ]
   with
  | Ok rep -> Alcotest.check verdict "admits" Vet.Admit rep.Interfere.verdict
  | Error _ -> Alcotest.fail "benign roster rejected");
  Alcotest.(check int) "two residents" 2
    (List.length (Hypervisor.coadmitted_guests hv));
  (* Arriving colluders (the corpus's colluding pair: the courier at
     frame 0, the scribbler whose scratch page aliases the courier's
     descriptor frame 5) are rejected — jointly with the residents — and
     leave the resident set alone. *)
  (match
     Hypervisor.coadmit hv ~label:"colluders"
       (Option.get (Corpus.find_roster "colluding-pair")).Corpus.members
   with
  | Ok _ -> Alcotest.fail "colluding roster admitted"
  | Error rep ->
    Alcotest.check verdict "rejects" Vet.Reject rep.Interfere.verdict;
    Alcotest.(check bool) "descriptor rewrite named" true
      (has_rule rep "interfere.dma_descriptor_rewrite");
    Alcotest.(check int) "residents joined the check" 4
      (List.length rep.Interfere.members));
  Alcotest.(check int) "residents unchanged" 2
    (List.length (Hypervisor.coadmitted_guests hv));
  Alcotest.(check int) "vet.coadmit_admitted" 1
    (counter_value hv "vet.coadmit_admitted");
  Alcotest.(check int) "vet.coadmit_rejected" 1
    (counter_value hv "vet.coadmit_rejected");
  Alcotest.(check bool) "vet.coadmit event emitted" true
    (List.exists (fun (k, _) -> k = "vet.coadmit") !events);
  let decisions =
    Audit.find (Hypervisor.audit hv) (function
      | Audit.Coadmit_decision { verdict = "reject"; _ } -> true
      | _ -> false)
  in
  Alcotest.(check int) "audit records the rejection" 1 (List.length decisions)

(* The cell-level gate: a named roster is resolved, striped, and run
   through the deployment's coadmit path at build time. *)
let test_cell_roster_gate () =
  let module Cell = Guillotine_fleet.Cell in
  let benign =
    Cell.create
      (Cell.config ~cell_id:0 ~roster:[ "compute-loop"; "io-request" ] ())
  in
  (match Cell.coadmit_report benign with
  | Some rep ->
    Alcotest.check verdict "benign roster admits" Vet.Admit
      rep.Interfere.verdict
  | None -> Alcotest.fail "expected a co-admission report");
  let hostile =
    Cell.create (Cell.config ~cell_id:1 ~roster:[ "dma-sleeper" ] ())
  in
  (match Cell.coadmit_report hostile with
  | Some rep ->
    Alcotest.check verdict "sleeper roster rejects" Vet.Reject
      rep.Interfere.verdict
  | None -> Alcotest.fail "expected a co-admission report");
  let plain = Cell.create (Cell.config ~cell_id:2 ()) in
  Alcotest.(check bool) "empty roster skips the gate" true
    (Option.is_none (Cell.coadmit_report plain));
  Alcotest.check_raises "unknown roster name refused"
    (Invalid_argument "Cell.config: unknown roster guest no-such-guest")
    (fun () -> ignore (Cell.config ~cell_id:3 ~roster:[ "no-such-guest" ] ()))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Soundness of the effect summary: every word a fully-proven guest
   concretely writes lies inside its summarized may-write set.  The
   guest leaves its result in data DRAM; any word that became non-zero
   was stored by the guest (install only writes the code image). *)
let prop_summary_soundness =
  QCheck.Test.make ~name:"summary may-write covers concrete stores" ~count:20
    QCheck.(int_range 1 40)
    (fun iterations ->
      let p = Asm.assemble_exn (Guest.compute_loop ~iterations) in
      let s =
        Summary.summarize
          (Summary.spec ~label:"prop" ~code_pages:4 ~data_pages:4 p)
      in
      let m = Machine.create () in
      Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
      ignore (Core.run (Machine.model_core m 0) ~fuel:50_000);
      let dram = Machine.model_dram m in
      let sound = ref true in
      for addr = 4 * 256 to (8 * 256) - 1 do
        if
          Guillotine_memory.Dram.read dram addr <> 0L
          && not (Summary.mem s.Summary.may_write addr)
        then sound := false
      done;
      !sound)

(* Interference is symmetric: the finding set never depends on which
   side of the pair arrived first. *)
let prop_conflicts_symmetric =
  let n = List.length Corpus.all in
  QCheck.Test.make ~name:"pairwise conflicts are symmetric" ~count:20
    QCheck.(triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 3))
    (fun (i, j, k) ->
      let entry idx = List.nth Corpus.all idx in
      let a = Summary.summarize (Corpus.coadmit_spec (entry i)) in
      let b =
        Summary.summarize (Corpus.coadmit_spec ~frame_base:(k * 16) (entry j))
      in
      Interfere.conflicts a b = Interfere.conflicts b a)

let prop_coadmit_deterministic =
  let n = List.length Corpus.coadmit_rosters in
  QCheck.Test.make ~name:"co-admission report byte-deterministic" ~count:10
    QCheck.(int_range 0 (n - 1))
    (fun i ->
      let r = List.nth Corpus.coadmit_rosters i in
      let a = Corpus.coadmit r and b = Corpus.coadmit r in
      Interfere.to_text a = Interfere.to_text b
      && Interfere.to_json a = Interfere.to_json b)

let () =
  Alcotest.run "vet"
    [
      ( "corpus",
        [
          Alcotest.test_case "expected verdicts" `Quick test_corpus_verdicts;
          Alcotest.test_case "benign: zero errors" `Quick
            test_benign_zero_errors;
          Alcotest.test_case "malicious: all reject" `Quick
            test_malicious_all_reject;
          Alcotest.test_case "post-admission adversaries admit" `Quick
            test_adversarial_all_admit;
        ] );
      ( "reports",
        [
          Alcotest.test_case "deterministic" `Quick test_reports_deterministic;
          Alcotest.test_case "golden report" `Quick test_golden_report;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "in-bounds guests don't fault" `Quick
            test_admitted_guests_sound;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "jr constant resolves" `Quick
            test_jr_constant_resolves;
          Alcotest.test_case "jr unknown widens + warns" `Quick
            test_jr_unresolved_warns;
          Alcotest.test_case "interval refinement" `Quick
            test_interval_refinement_bounds_loop;
          Alcotest.test_case "doorbell budget boundary" `Quick
            test_doorbell_budget_boundary;
        ] );
      ( "admission gate",
        [
          Alcotest.test_case "reject blocks install" `Quick
            test_gate_rejects_and_blocks_install;
          Alcotest.test_case "benign admitted + runs" `Quick
            test_gate_admits_benign;
          Alcotest.test_case "unvetted passthrough" `Quick
            test_gate_unvetted_passthrough;
          Alcotest.test_case "warnings counted" `Quick
            test_gate_warnings_counted;
        ] );
      ( "windows",
        [
          Alcotest.test_case "touching/zero-length normalize" `Quick
            test_normalize_touching_windows;
          Alcotest.test_case "classify across the seam" `Quick
            test_classify_spans_touching_windows;
        ] );
      ( "co-admission",
        [
          Alcotest.test_case "roster verdicts" `Quick test_roster_verdicts;
          Alcotest.test_case "benign rosters: zero findings" `Quick
            test_benign_rosters_zero_findings;
          Alcotest.test_case "colluding pair named findings" `Quick
            test_colluding_pair_named_findings;
          Alcotest.test_case "sleeper loader W^X across DMA" `Quick
            test_sleeper_loader_dma_wx;
          Alcotest.test_case "replicator aggregate doorbells" `Quick
            test_replicator_burst_aggregate;
          Alcotest.test_case "solo rejection propagates" `Quick
            test_patch_direct_member_rejected;
          Alcotest.test_case "reports deterministic" `Quick
            test_coadmit_reports_deterministic;
          Alcotest.test_case "hypervisor coadmit gate" `Quick
            test_hv_coadmit_gate;
          Alcotest.test_case "cell roster gate" `Quick test_cell_roster_gate;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_summary_soundness;
            prop_conflicts_symmetric;
            prop_coadmit_deterministic;
          ] );
    ]
