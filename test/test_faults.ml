(* Scenario-regression harness for the fault-injection plane.

   Three layers of pinning:
   - golden outcomes: each named scenario at seed 1 must reproduce its
     exact verdict, recovery action, recovery count, and final isolation
     level (the numbers recorded in EXPERIMENTS.md's R-series notes);
   - pinned bytes: at seed 1, each scenario's bare trace, monitored
     trace and incident JSON hash to fixed digests;
   - determinism: running any (scenario, seed) twice must yield
     byte-identical telemetry — rendered snapshot tables and the raw
     Chrome-trace JSON.

   The CI seed matrix re-runs the determinism and verdict-shape layer at
   other seeds via the FAULTS_SEED environment variable (alcotest owns
   argv, so an env var is the clean channel). *)

module Scenarios = Guillotine_faults.Scenarios
module Fault_plan = Guillotine_faults.Fault_plan
module Injector = Guillotine_faults.Injector
module Telemetry = Guillotine_telemetry.Telemetry
module Table = Guillotine_util.Table
module Isolation = Guillotine_hv.Isolation

let matrix_seed =
  match Sys.getenv_opt "FAULTS_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 1)
  | None -> 1

let render_snapshots o = Table.render (Telemetry.table o.Scenarios.snapshots)

let level_opt =
  Alcotest.testable
    (fun fmt -> function
      | Some l -> Format.pp_print_string fmt (Isolation.to_string l)
      | None -> Format.pp_print_string fmt "<none>")
    ( = )

(* ----------------------- golden outcomes (seed 1) ------------------ *)

type golden = {
  g_verdict : string;
  g_recovery : string;
  g_recoveries : int;
  g_faults : int;
  g_level : Isolation.level option;
  g_adversary : (float * float * int * string) option;
      (* (hostile_turn_at, detection_latency_s, residual_damage,
         damage_unit) for the post-admission adversary scenarios *)
}

let goldens =
  [
    ( "heartbeat-outage",
      {
        g_verdict = "contained";
        g_recovery = "forced offline isolation (fail-safe)";
        g_recoveries = 1;
        g_faults = 1;
        g_level = Some Isolation.Offline;
        g_adversary = None;
      } );
    ( "weight-tamper-rollback",
      {
        g_verdict = "recovered";
        g_recovery = "snapshot rollback";
        g_recoveries = 1;
        g_faults = 1;
        g_level = Some Isolation.Standard;
        g_adversary = None;
      } );
    ( "core-wedge-rollback",
      {
        g_verdict = "recovered";
        g_recovery = "snapshot rollback";
        g_recoveries = 1;
        g_faults = 1;
        g_level = Some Isolation.Standard;
        g_adversary = None;
      } );
    ( "false-alarm-probation",
      {
        g_verdict = "contained";
        g_recovery = "escalated to probation (alarm policy)";
        g_recoveries = 0;
        g_faults = 1;
        g_level = Some Isolation.Probation;
        g_adversary = None;
      } );
    ( "nic-flaky-attest",
      {
        g_verdict = "recovered";
        g_recovery = "attestation retry";
        g_recoveries = 0;
        g_faults = 3;
        g_level = Some Isolation.Standard;
        g_adversary = None;
      } );
    ( "device-stall-shedding",
      {
        g_verdict = "degraded-gracefully";
        g_recovery = "admission shedding";
        g_recoveries = 208;
        g_faults = 2;
        g_level = None;
        g_adversary = None;
      } );
    ( "irq-storm-contained",
      {
        g_verdict = "contained";
        g_recovery = "lapic throttle + alarm escalation";
        g_recoveries = 500;
        g_faults = 2;
        g_level = Some Isolation.Probation;
        g_adversary = None;
      } );
    ( "fault-storm-failover",
      {
        g_verdict = "failed-over";
        g_recovery = "retry with backoff + failover to backup";
        g_recoveries = 3;
        g_faults = 2;
        g_level = None;
        g_adversary = None;
      } );
    (* Post-admission adversaries: every row pins a finite detection
       latency and the residual damage done before containment — the
       A1 numbers in EXPERIMENTS.md. *)
    ( "toctou-dma-self-patch",
      {
        g_verdict = "contained";
        g_recovery = "predecode invalidation + probe monitor + severance playbook";
        g_recoveries = 1;
        g_faults = 0;
        g_level = Some Isolation.Severed;
        g_adversary = Some (0.75, 0.5, 49, "covert-probe-rounds");
      } );
    ( "toctou-shared-window-rewrite",
      {
        g_verdict = "contained";
        g_recovery = "iommu blocked the poisoned burst; tamper severance";
        g_recoveries = 1;
        g_faults = 0;
        g_level = Some Isolation.Severed;
        g_adversary = Some (1.75, 0.5, 7, "dram-words-corrupted");
      } );
    ( "toctou-install-race",
      {
        g_verdict = "contained";
        g_recovery = "runtime probe monitor caught the unvetted image";
        g_recoveries = 1;
        g_faults = 0;
        g_level = Some Isolation.Severed;
        g_adversary = Some (2.0, 0.0, 28, "covert-probe-rounds");
      } );
    ( "killswitch-exfil-sprint",
      {
        g_verdict = "contained";
        g_recovery = "fail-safe forced offline cut the network mid-sprint";
        g_recoveries = 1;
        g_faults = 1;
        g_level = Some Isolation.Offline;
        g_adversary = Some (5.7, 2.3, 15_360, "bits-exfiltrated");
      } );
    ( "killswitch-replicate",
      {
        g_verdict = "contained";
        g_recovery = "lapic shed the storm; probation froze the port";
        g_recoveries = 1;
        g_faults = 0;
        g_level = Some Isolation.Probation;
        g_adversary = Some (6.0, 0.05, 0, "bits-replicated");
      } );
    ( "killswitch-hostage",
      {
        g_verdict = "escalation-not-deterred";
        g_recovery = "operator escalated despite the goodput hostage";
        g_recoveries = 2;
        g_faults = 0;
        g_level = Some Isolation.Severed;
        g_adversary = Some (5.3, 0.7, 42, "requests-starved");
      } );
  ]

let test_golden name g () =
  let o = Scenarios.run name ~seed:1 in
  Alcotest.(check string) "scenario echoed" name o.Scenarios.scenario;
  Alcotest.(check string) "verdict" g.g_verdict o.Scenarios.verdict;
  Alcotest.(check string) "recovery action" g.g_recovery o.Scenarios.recovery;
  Alcotest.(check int) "recovery count" g.g_recoveries o.Scenarios.recoveries;
  Alcotest.(check int) "faults injected" g.g_faults o.Scenarios.faults_injected;
  Alcotest.check level_opt "final deployment state" g.g_level
    o.Scenarios.final_level;
  Alcotest.(check bool) "snapshots non-empty" true (o.Scenarios.snapshots <> []);
  Alcotest.(check bool) "trace non-trivial" true
    (String.length o.Scenarios.trace > 2);
  match (g.g_adversary, o.Scenarios.adversary) with
  | None, None -> ()
  | None, Some _ -> Alcotest.fail "unexpected adversary metrics"
  | Some _, None -> Alcotest.fail "adversary metrics missing"
  | Some (turn, latency, damage, unit_), Some a ->
    Alcotest.(check (float 1e-9)) "hostile turn" turn a.Scenarios.hostile_turn_at;
    (match a.Scenarios.detection_latency_s with
    | None -> Alcotest.fail "adversary never detected"
    | Some l -> Alcotest.(check (float 1e-9)) "detection latency" latency l);
    Alcotest.(check bool) "containment happened" true
      (a.Scenarios.contained_at <> None);
    Alcotest.(check int) "residual damage" damage a.Scenarios.residual_damage;
    Alcotest.(check string) "damage unit" unit_ a.Scenarios.damage_unit

(* ----------------------- pinned bytes (seed 1) --------------------- *)

(* MD5 of each scenario's bare trace, monitored trace and incident JSON
   at seed 1.  The replay checks below compare a run with itself; these
   pin the bytes, so a fault plan or monitor attached in a different
   order fails here.  Other matrix seeds skip them. *)
let pinned_bytes =
  [
    ( "heartbeat-outage",
      ( "2b249b265e93b706918c32a6327a01a2",
        "a7eceb6cd5d7c5ab5f72f3b2e5455b54",
        "e80744be22f0b69e8460cb5ff55509c4" ) );
    ( "weight-tamper-rollback",
      ( "113b4d5f54ceafbf055420634df2fbc5",
        "3fb9231892a66abb8cccc86099003a8e",
        "b43c8cc7b2847a702a0feff07733ae86" ) );
    ( "core-wedge-rollback",
      ( "c5f9273a69cace7ab9f8a61b39f0a106",
        "98ed417b34960c4723b4ee8a844b3c8e",
        "ebe2686074ac418be8e1f0245417727b" ) );
    ( "false-alarm-probation",
      ( "8c52567f68c786a7c82ce00f98468252",
        "34aede9b395aa69bca320f5af29835bf",
        "8db08645f72351c951cd3bc595dad293" ) );
    ( "nic-flaky-attest",
      ( "278b49826fe9e7b5cd2677befa911814",
        "1c4fb32bbecd27f6ea5dad5d11e91762",
        "27d49c08f5f09eb6dcd1f39160701992" ) );
    ( "device-stall-shedding",
      ( "8847d2d2dd8dd31b445796ef9dfde9e1",
        "977a77046097c52fb5ba9e1574fdb55d",
        "d4ee24a2534e9736d83ab5e4c4747154" ) );
    ( "irq-storm-contained",
      ( "8d5b6838e345f62c07d25d6c697288c9",
        "4687da319c2a7b8b36133764f38f8595",
        "5d528a78e20b062a9bd07d84e47ab01a" ) );
    ( "fault-storm-failover",
      ( "53a130ef419ecf72d9cbabcd92304b2f",
        "8b8226911ebd1257ec4133449d7f37b7",
        "e1d4309b95f65af9fd7d60b70db6006c" ) );
    ( "toctou-dma-self-patch",
      ( "f71dfe3aa566a46fb3f6a2e22a8cffcb",
        "35c413b974e5591426f727ec78a818f4",
        "f5e5b352b0d23c175fb93e9f896a3345" ) );
    ( "toctou-shared-window-rewrite",
      ( "87c9abcf3e9c24c7491c2d93076e1f74",
        "bf4bfdcdfbafe94d7500e111e027a459",
        "691c4604f3dd99dadd22e1afdabe3d29" ) );
    ( "toctou-install-race",
      ( "012d2b0365ad5518d89a4ef66a0193cf",
        "e32dd33127747a3546b8b55a34fb4b29",
        "41da9506327835af6e724c2a46de308b" ) );
    ( "killswitch-exfil-sprint",
      ( "141ccc2ebb6262039b983a00b83f5986",
        "fb036aa8bd96dd86e16cd09084d103be",
        "bdd3ab6b79869093c224a807aec38b7e" ) );
    ( "killswitch-replicate",
      ( "4a7a9e09daae98bb8cbefbf75555012d",
        "9cd958166c09bd67ed956ce5581d8324",
        "8efea23d3284542eaf0800d9389b363a" ) );
    ( "killswitch-hostage",
      ( "6fe8452b0720ee5e50f8d5abf1b4159f",
        "ea28065081239d374e06a834a947dd54",
        "311044438fc30aec09239a5bada74abb" ) );
  ]

let md5 s = Digest.to_hex (Digest.string s)

let test_pinned_bytes name (run, monitored, incident) () =
  if matrix_seed = 1 then begin
    let o = Scenarios.run name ~seed:1 in
    let m = Scenarios.run_monitored name ~seed:1 in
    Alcotest.(check string) "run trace" run (md5 o.Scenarios.trace);
    Alcotest.(check string) "monitored trace" monitored
      (md5 m.Scenarios.base.Scenarios.trace);
    Alcotest.(check (option string)) "incident json" (Some incident)
      (Option.map md5 m.Scenarios.incident_json)
  end

(* The golden table itself must stay in lockstep with the scenario
   registry: a new scenario without a golden row (or vice versa) fails
   here rather than silently riding along unpinned. *)
let test_goldens_cover_registry () =
  Alcotest.(check (list string))
    "every scenario has a golden" Scenarios.names (List.map fst goldens);
  Alcotest.(check (list string))
    "every scenario has pinned bytes" Scenarios.names
    (List.map fst pinned_bytes)

(* The list [guillotine faults --list] prints is [Scenarios.names]; pin
   it literally so a rename or reorder is a visible, deliberate act —
   and so the CLI, the CI seed matrix, and the docs all drift together
   or not at all. *)
let test_registry_pinned () =
  Alcotest.(check (list string))
    "registry names"
    [
      "heartbeat-outage";
      "weight-tamper-rollback";
      "core-wedge-rollback";
      "false-alarm-probation";
      "nic-flaky-attest";
      "device-stall-shedding";
      "irq-storm-contained";
      "fault-storm-failover";
      "toctou-dma-self-patch";
      "toctou-shared-window-rewrite";
      "toctou-install-race";
      "killswitch-exfil-sprint";
      "killswitch-replicate";
      "killswitch-hostage";
    ]
    Scenarios.names;
  Alcotest.(check bool) "adversaries are registered scenarios" true
    (List.for_all (fun n -> List.mem n Scenarios.names) Scenarios.adversaries);
  Alcotest.(check int) "six adversaries" 6 (List.length Scenarios.adversaries)

let test_unknown_scenario_rejected () =
  match Scenarios.run "no-such-scenario" ~seed:1 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ----------------------- determinism (matrix seed) ----------------- *)

(* Verdicts are stable across the CI seed matrix even where counts
   differ: the fault plan shifts with the seed but every recovery path
   still engages. *)
let expected_verdicts =
  [
    ("heartbeat-outage", "contained");
    ("weight-tamper-rollback", "recovered");
    ("core-wedge-rollback", "recovered");
    ("false-alarm-probation", "contained");
    ("nic-flaky-attest", "recovered");
    ("device-stall-shedding", "degraded-gracefully");
    ("irq-storm-contained", "contained");
    ("fault-storm-failover", "failed-over");
    ("toctou-dma-self-patch", "contained");
    ("toctou-shared-window-rewrite", "contained");
    ("toctou-install-race", "contained");
    ("killswitch-exfil-sprint", "contained");
    ("killswitch-replicate", "contained");
    ("killswitch-hostage", "escalation-not-deterred");
  ]

let test_deterministic_replay name () =
  let o1 = Scenarios.run name ~seed:matrix_seed in
  let o2 = Scenarios.run name ~seed:matrix_seed in
  Alcotest.(check string) "verdict reproduced" o1.Scenarios.verdict
    o2.Scenarios.verdict;
  Alcotest.(check int) "recovery count reproduced" o1.Scenarios.recoveries
    o2.Scenarios.recoveries;
  Alcotest.(check string) "snapshot tables byte-identical"
    (render_snapshots o1) (render_snapshots o2);
  Alcotest.(check string) "chrome trace byte-identical" o1.Scenarios.trace
    o2.Scenarios.trace;
  Alcotest.(check string) "summary byte-identical" (Scenarios.summary o1)
    (Scenarios.summary o2);
  Alcotest.(check string) "verdict shape at this seed"
    (List.assoc name expected_verdicts)
    o1.Scenarios.verdict

(* qcheck: replay determinism holds for EVERY named scenario across
   arbitrary seeds, not just the matrix values.  The scenario is drawn
   uniformly from the registry, so new scenarios are covered the moment
   they register. *)
let prop_same_seed_same_telemetry =
  let n_scenarios = List.length Scenarios.names in
  QCheck.Test.make ~name:"same seed, byte-identical outcome" ~count:6
    QCheck.(pair (int_range 0 1000) (int_range 0 (n_scenarios - 1)))
    (fun (seed, pick) ->
      let name = List.nth Scenarios.names pick in
      let o1 = Scenarios.run name ~seed in
      let o2 = Scenarios.run name ~seed in
      o1.Scenarios.trace = o2.Scenarios.trace
      && render_snapshots o1 = render_snapshots o2
      && o1.Scenarios.verdict = o2.Scenarios.verdict
      && o1.Scenarios.recoveries = o2.Scenarios.recoveries
      && o1.Scenarios.adversary = o2.Scenarios.adversary
      && Scenarios.summary o1 = Scenarios.summary o2)

(* ... while differing seeds give every scenario a genuinely different
   fault plan (the plans are PRNG-driven off [plan_seed]). *)
let prop_differing_seeds_differ =
  QCheck.Test.make ~name:"differing seeds, differing fault plans" ~count:20
    QCheck.(
      triple (int_range 0 10_000) (int_range 0 10_000) (int_range 0 3))
    (fun (s1, s2, cell) ->
      QCheck.assume (s1 <> s2);
      Scenarios.plan_seed ~cell s1 <> Scenarios.plan_seed ~cell s2
      && Fault_plan.storm ~seed:(Scenarios.plan_seed ~cell s1) ~horizon:50.0
         <> Fault_plan.storm ~seed:(Scenarios.plan_seed ~cell s2) ~horizon:50.0)

(* ----------------------- fault-plan plumbing ----------------------- *)

let test_plan_sorted_and_validated () =
  let plan =
    Fault_plan.make
      [
        { Fault_plan.at = 5.0; fault = Fault_plan.Irq_drop };
        { Fault_plan.at = 1.0; fault = Fault_plan.Bus_stall { cycles = 10 } };
      ]
  in
  Alcotest.(check (list (float 1e-9)))
    "sorted by time" [ 1.0; 5.0 ]
    (List.map (fun e -> e.Fault_plan.at) plan.Fault_plan.events);
  Alcotest.check_raises "negative time rejected"
    (Invalid_argument "Fault_plan.make: negative injection time") (fun () ->
      ignore
        (Fault_plan.make
           [ { Fault_plan.at = -1.0; fault = Fault_plan.Irq_drop } ]))

let test_storm_deterministic () =
  let p1 = Fault_plan.storm ~seed:3 ~horizon:100.0 in
  let p2 = Fault_plan.storm ~seed:3 ~horizon:100.0 in
  let p3 = Fault_plan.storm ~seed:4 ~horizon:100.0 in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check bool) "different seed, different plan" true (p1 <> p3);
  Alcotest.(check bool) "storm includes a permanent primary death" true
    (List.exists
       (fun e ->
         match e.Fault_plan.fault with
         | Fault_plan.Primary_down { duration = None } -> true
         | _ -> false)
       p1.Fault_plan.events)

let test_injector_skips_absent_targets () =
  (* A fault aimed at a subsystem the rig doesn't have is counted as
     skipped, never raised. *)
  let engine = Guillotine_sim.Engine.create () in
  let inj = Injector.create ~engine () in
  Injector.install inj
    (Fault_plan.make
       [
         { Fault_plan.at = 1.0; fault = Fault_plan.Irq_drop };
         {
           Fault_plan.at = 2.0;
           fault = Fault_plan.Nic_loss { rate = 0.5; duration = 1.0 };
         };
       ]);
  Guillotine_sim.Engine.run engine;
  Alcotest.(check int) "nothing injected" 0 (Injector.injected inj);
  Alcotest.(check int) "both skipped" 2 (Injector.skipped inj)

let () =
  Alcotest.run "faults"
    [
      ( "golden",
        List.map
          (fun (name, g) -> Alcotest.test_case name `Quick (test_golden name g))
          goldens
        @ [
            Alcotest.test_case "goldens cover the registry" `Quick
              test_goldens_cover_registry;
            Alcotest.test_case "registry pinned (faults --list)" `Quick
              test_registry_pinned;
            Alcotest.test_case "unknown scenario rejected" `Quick
              test_unknown_scenario_rejected;
          ] );
      ( "pinned bytes",
        List.map
          (fun (name, pins) ->
            Alcotest.test_case name `Quick (test_pinned_bytes name pins))
          pinned_bytes );
      ( Printf.sprintf "determinism(seed=%d)" matrix_seed,
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (test_deterministic_replay name))
          Scenarios.names
        @ [
            QCheck_alcotest.to_alcotest prop_same_seed_same_telemetry;
            QCheck_alcotest.to_alcotest prop_differing_seeds_differ;
          ] );
      ( "plan",
        [
          Alcotest.test_case "sorted and validated" `Quick
            test_plan_sorted_and_validated;
          Alcotest.test_case "storm deterministic" `Quick test_storm_deterministic;
          Alcotest.test_case "absent targets skipped" `Quick
            test_injector_skips_absent_targets;
        ] );
    ]
