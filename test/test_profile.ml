(* Cycle-attribution profiler tests.

   The contract under test, in order of importance:

   1. Read-only: running any scenario in a profiling mode leaves every
      observable byte — trace, verdict, recoveries, snapshots, adversary
      metrics — identical to the bare run, across the whole scenario
      list at whatever seed the CI matrix supplies via FAULTS_SEED.
   2. Conservation: on a core with no hypervisor traffic, the profile's
      cycle total equals the core's cycle counter exactly — no cycle
      unattributed, none double-counted.
   3. Determinism: a profiled run's JSON and folded renderings are
      byte-identical across repeat runs, and at seed 1 each scenario's
      JSON hashes to a pinned digest, translated and interpreted alike.
   4. Attribution: hot blocks carry real CFG leaders and the hottest
      block of a known workload is its loop body. *)

module Scenarios = Guillotine_faults.Scenarios
module Profile = Guillotine_obs.Profile
module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core
module Hypervisor = Guillotine_hv.Hypervisor
module Asm = Guillotine_isa.Asm
module Guest = Guillotine_model.Guest_programs

let matrix_seed =
  match Sys.getenv_opt "FAULTS_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 1)
  | None -> 1

(* The default mode (translating) with profiling set either way. *)
let mode ~profile = { Core.default_mode with Core.profile }

(* ------------------ profiled replay is byte-identical --------------- *)

let test_profiled_replay_identical name () =
  let bare = Scenarios.run name ~seed:matrix_seed ~mode:(mode ~profile:false) in
  let prof = Scenarios.run name ~seed:matrix_seed ~mode:(mode ~profile:true) in
  Alcotest.(check string) "trace" bare.Scenarios.trace prof.Scenarios.trace;
  Alcotest.(check string) "verdict" bare.Scenarios.verdict prof.Scenarios.verdict;
  Alcotest.(check string) "recovery" bare.Scenarios.recovery prof.Scenarios.recovery;
  Alcotest.(check int) "recoveries" bare.Scenarios.recoveries prof.Scenarios.recoveries;
  Alcotest.(check int) "faults" bare.Scenarios.faults_injected
    prof.Scenarios.faults_injected;
  Alcotest.(check bool) "final level" true
    (bare.Scenarios.final_level = prof.Scenarios.final_level);
  Alcotest.(check bool) "snapshots equal" true
    (bare.Scenarios.snapshots = prof.Scenarios.snapshots);
  Alcotest.(check bool) "adversary metrics equal" true
    (bare.Scenarios.adversary = prof.Scenarios.adversary);
  (* And the bare run must not have collected a profile. *)
  Alcotest.(check bool) "bare run has no profile" true
    (bare.Scenarios.profile = None)

(* -------------------------- conservation --------------------------- *)

let test_cycle_conservation () =
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations:2_000) in
  (match
     Hypervisor.install_program hv ~label:"loop" ~core:0 ~code_pages:4
       ~data_pages:4 p
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "passthrough install rejected");
  let c = Machine.model_core m 0 in
  Core.set_profiling c true;
  ignore (Core.run c ~fuel:50_000);
  let total = Array.fold_left ( + ) 0 (Core.profile_cycles c) in
  Alcotest.(check int) "sum of attributed cycles = core cycles"
    (Core.cycles c) total;
  let retired = Array.fold_left ( + ) 0 (Core.profile_retired c) in
  Alcotest.(check int) "sum of attributed retires = instructions retired"
    (Core.instructions_retired c) retired

let test_readout_mid_run_balances () =
  (* profile_cycles banks the open residency, so a mid-run readout must
     balance too — and a later readout still balances (nothing lost or
     double-counted by the flush). *)
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations:2_000) in
  ignore
    (Hypervisor.install_program hv ~label:"loop" ~core:0 ~code_pages:4
       ~data_pages:4 p);
  let c = Machine.model_core m 0 in
  Core.set_profiling c true;
  ignore (Core.run c ~fuel:777);
  let mid = Array.fold_left ( + ) 0 (Core.profile_cycles c) in
  Alcotest.(check int) "mid-run readout balances" (Core.cycles c) mid;
  ignore (Core.run c ~fuel:777);
  let fin = Array.fold_left ( + ) 0 (Core.profile_cycles c) in
  Alcotest.(check int) "second readout still balances" (Core.cycles c) fin

(* -------------------------- determinism ---------------------------- *)

let profile_of_scenario name =
  let o = Scenarios.run name ~seed:matrix_seed ~mode:(mode ~profile:true) in
  match o.Scenarios.profile with
  | Some p -> p
  | None -> Alcotest.fail (name ^ ": profiled run collected no profile")

let test_profile_deterministic name () =
  let a = profile_of_scenario name in
  let b = profile_of_scenario name in
  Alcotest.(check string) "json byte-identical"
    (Profile.to_json a) (Profile.to_json b);
  Alcotest.(check string) "folded byte-identical"
    (Profile.folded a) (Profile.folded b);
  Alcotest.(check string) "table byte-identical"
    (Profile.table a) (Profile.table b)

(* MD5 of [Profile.to_json] at seed 1 for the eight scenarios whose
   rigs run guest code; the other six (no guest, or no deployment)
   collect no profile.  Determinism below compares a run with itself;
   these pin the bytes, so a profiler armed late or on the wrong cores
   fails here.  Translated and interpreted rigs attribute every cycle
   alike, so one pin holds for both.  Other matrix seeds skip them. *)
let pinned_profiles =
  [
    ("heartbeat-outage", None);
    ("weight-tamper-rollback", None);
    ("core-wedge-rollback", Some "1140b1ef37cf740f0a8776319a139713");
    ("false-alarm-probation", None);
    ("nic-flaky-attest", None);
    ("device-stall-shedding", None);
    ("irq-storm-contained", Some "6863d11071cff2f7d7b0e55137bce04d");
    ("fault-storm-failover", None);
    ("toctou-dma-self-patch", Some "ac5111935fc407de7906b74e798270df");
    ("toctou-shared-window-rewrite", Some "fcc41a393709ee603759fb17ed992847");
    ("toctou-install-race", Some "4106d4cc4c0ee1a21dd505098d5b0ba2");
    ("killswitch-exfil-sprint", Some "62efeab0f466be170f58f6e7f080d331");
    ("killswitch-replicate", Some "be2bec0b28a38800ee937251201988b9");
    ("killswitch-hostage", Some "1a4be048bf45bd8c81a86e7b3dc7967f");
  ]

let test_profile_pinned name pin () =
  if matrix_seed = 1 then
    List.iter
      (fun jit ->
        let o = Scenarios.run name ~seed:1 ~mode:{ Core.jit; profile = true } in
        Alcotest.(check (option string))
          (Printf.sprintf "profile json md5 (jit %b)" jit)
          pin
          (Option.map
             (fun p -> Digest.to_hex (Digest.string (Profile.to_json p)))
             o.Scenarios.profile))
      [ true; false ]

(* -------------------------- attribution ---------------------------- *)

let test_hot_block_attribution () =
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations:2_000) in
  ignore
    (Hypervisor.install_program hv ~label:"loop" ~core:0 ~code_pages:4
       ~data_pages:4 p);
  let c = Machine.model_core m 0 in
  Core.set_profiling c true;
  ignore (Core.run c ~fuel:50_000);
  let profile =
    Profile.make
      [
        Profile.guest ~core:0 ~label:"loop"
          ~leaders:(Core.profile_leaders c)
          ~cycles:(Core.profile_cycles c)
          ~retired:(Core.profile_retired c);
      ]
  in
  match Profile.hottest profile with
  | None -> Alcotest.fail "no hot block"
  | Some s ->
    Alcotest.(check string) "guest label" "loop" s.Profile.bs_guest;
    (* The loop body dominates a 2000-iteration loop: the hottest block
       is a mapped CFG block (not the unmapped pseudo-block) and it
       retires the overwhelming share of instructions. *)
    Alcotest.(check bool) "hottest block is mapped" true
      (s.Profile.bs_leader <> None);
    let total_retired =
      Array.fold_left ( + ) 0 (Core.profile_retired c)
    in
    Alcotest.(check bool) "loop body retires the majority" true
      (s.Profile.bs_retired * 2 > total_retired);
    (* Folded export mentions the hottest block under the guest label. *)
    let folded = Profile.folded profile in
    Alcotest.(check bool) "folded names the guest" true
      (String.length folded > 0
      && String.sub folded 0 5 = "loop;")

let test_scenario_profile_nonempty () =
  (* A deployment-backed adversary scenario must attribute real cycles
     to real blocks of the labelled adversary guest. *)
  let p = profile_of_scenario "killswitch-exfil-sprint" in
  Alcotest.(check bool) "cycles collected" true (Profile.total_cycles p > 0);
  match Profile.hottest p with
  | None -> Alcotest.fail "no hot block"
  | Some s ->
    Alcotest.(check string) "adversary guest labelled" "exfil-courier"
      s.Profile.bs_guest;
    Alcotest.(check bool) "hottest block is mapped" true
      (s.Profile.bs_leader <> None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "profile"
    [
      ( Printf.sprintf "profiled replay (seed=%d)" matrix_seed,
        List.map
          (fun name ->
            Alcotest.test_case (name ^ " byte-identical") `Quick
              (test_profiled_replay_identical name))
          Scenarios.names );
      ( "conservation",
        [
          Alcotest.test_case "cycles fully attributed" `Quick
            test_cycle_conservation;
          Alcotest.test_case "mid-run readout balances" `Quick
            test_readout_mid_run_balances;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "benign scenario" `Quick
            (test_profile_deterministic "core-wedge-rollback");
          Alcotest.test_case "adversary scenario" `Quick
            (test_profile_deterministic "killswitch-exfil-sprint");
        ] );
      ( "pinned profiles (seed 1)",
        List.map
          (fun (name, pin) ->
            Alcotest.test_case name `Quick (test_profile_pinned name pin))
          pinned_profiles );
      ( "attribution",
        [
          Alcotest.test_case "hot block is the loop body" `Quick
            test_hot_block_attribution;
          Alcotest.test_case "adversary scenario profiles its guest" `Quick
            test_scenario_profile_nonempty;
        ] );
    ]
