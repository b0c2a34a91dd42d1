(* Tests for the policy hypervisor: risk scoring and classification,
   per-tier obligations, compliance checking, the audit program, and the
   safe-harbor liability model. *)

module Risk = Guillotine_policy.Risk
module Regulation = Guillotine_policy.Regulation
module Audit_program = Guillotine_policy.Audit_program
module Safe_harbor = Guillotine_policy.Safe_harbor
module Engine = Guillotine_sim.Engine

let card ?(name = "m") ?(parameters = 1e9) ?(training_tokens = 1e11)
    ?(autonomy = Risk.Tool) ?(capabilities = []) () =
  { Risk.name; parameters; training_tokens; autonomy; capabilities }

(* ------------------------------ Risk ------------------------------- *)

let test_tiny_model_minimal () =
  Alcotest.(check string) "minimal" "minimal"
    (Risk.tier_to_string (Risk.classify (card ~parameters:1e8 ~training_tokens:1e10 ())))

let test_midsize_model_limited () =
  let c = card ~parameters:1e10 ~training_tokens:1e12 ~autonomy:Risk.Supervised () in
  (* 2 + 1 + 2 = 5 points -> Limited *)
  Alcotest.(check int) "score" 5 (Risk.score c);
  Alcotest.(check string) "limited" "limited" (Risk.tier_to_string (Risk.classify c))

let test_frontier_model_systemic () =
  let c =
    card ~parameters:1.5e12 ~training_tokens:2e13 ~autonomy:Risk.Autonomous
      ~capabilities:[ Risk.Bio_chem_design ] ()
  in
  (* 4 + 2 + 4 + 4 = 14 -> Systemic *)
  Alcotest.(check string) "systemic" "systemic" (Risk.tier_to_string (Risk.classify c));
  Alcotest.(check bool) "needs guillotine" true (Risk.requires_guillotine c)

let test_hard_systemic_overrides () =
  (* A small self-replicating model is systemic regardless of points. *)
  let c = card ~parameters:1e8 ~capabilities:[ Risk.Self_replication ] () in
  Alcotest.(check string) "self-replication is systemic" "systemic"
    (Risk.tier_to_string (Risk.classify c));
  let c2 =
    card ~parameters:1e8 ~autonomy:Risk.Autonomous
      ~capabilities:[ Risk.Physical_control ] ()
  in
  Alcotest.(check string) "autonomous actuator control is systemic" "systemic"
    (Risk.tier_to_string (Risk.classify c2))

let test_duplicate_capabilities_count_once () =
  let c = card ~capabilities:[ Risk.Cyber_offense; Risk.Cyber_offense ] () in
  let c1 = card ~capabilities:[ Risk.Cyber_offense ] () in
  Alcotest.(check int) "dedup" (Risk.score c1) (Risk.score c)

let prop_score_monotone_in_capabilities =
  QCheck.Test.make ~name:"adding a capability never lowers the tier" ~count:100
    (QCheck.make
       (QCheck.Gen.oneofl
          [ Risk.Bio_chem_design; Risk.Cyber_offense; Risk.Disinformation;
            Risk.Physical_control; Risk.Self_replication ]))
    (fun cap ->
      let base = card ~parameters:1e10 ~autonomy:Risk.Supervised () in
      let more = { base with Risk.capabilities = [ cap ] } in
      Risk.tier_rank (Risk.classify more) >= Risk.tier_rank (Risk.classify base))

(* --------------------------- Regulation ---------------------------- *)

let systemic_card =
  card ~name:"frontier" ~parameters:2e12 ~training_tokens:5e13
    ~autonomy:Risk.Autonomous ~capabilities:[ Risk.Cyber_offense ] ()

let compliant_deployment =
  {
    Regulation.model = systemic_card;
    runs_on_guillotine = true;
    documentation_provided = true;
    source_inspected = true;
    attestation_fresh = true;
    last_physical_audit = Some 0.0;
    audit_max_age = 100.0;
  }

let test_obligations_scale_with_tier () =
  Alcotest.(check int) "minimal none" 0
    (List.length (Regulation.obligations_for Risk.Minimal));
  Alcotest.(check int) "systemic all five" 5
    (List.length (Regulation.obligations_for Risk.Systemic))

let test_compliant_systemic_deployment () =
  Alcotest.(check bool) "compliant" true
    (Regulation.compliant ~now:50.0 compliant_deployment)

let test_violations_reported () =
  let bad =
    {
      compliant_deployment with
      Regulation.runs_on_guillotine = false;
      attestation_fresh = false;
    }
  in
  let vs = Regulation.check ~now:50.0 bad in
  Alcotest.(check int) "two violations" 2 (List.length vs);
  Alcotest.(check bool) "guillotine named" true
    (List.exists
       (fun v -> v.Regulation.obligation = Regulation.Run_on_guillotine)
       vs)

let test_audit_overdue () =
  let stale = { compliant_deployment with Regulation.last_physical_audit = Some 0.0 } in
  Alcotest.(check bool) "fresh at t=50" true (Regulation.compliant ~now:50.0 stale);
  Alcotest.(check bool) "overdue at t=200" false (Regulation.compliant ~now:200.0 stale)

let test_minimal_model_needs_nothing () =
  let d =
    {
      Regulation.model = card ~parameters:1e7 ();
      runs_on_guillotine = false;
      documentation_provided = false;
      source_inspected = false;
      attestation_fresh = false;
      last_physical_audit = None;
      audit_max_age = 1.0;
    }
  in
  Alcotest.(check bool) "minimal tier unburdened" true (Regulation.compliant ~now:9e9 d)

(* -------------------------- Audit program -------------------------- *)

let test_audit_program_detects_tamper_and_new_hardware () =
  let e = Engine.create () in
  let enclosure_ok = ref true in
  let inventory = ref [ "srv-1"; "srv-2" ] in
  let probe =
    {
      Audit_program.enclosure_intact = (fun () -> !enclosure_ok);
      hardware_inventory = (fun () -> !inventory);
      kill_switches_tested = (fun () -> true);
    }
  in
  let prog =
    Audit_program.create ~engine:e ~probe
      ~expected_inventory:[ "srv-1"; "srv-2" ] ~cadence:10.0 ()
  in
  (* First audit at t=10 passes; then the model social-engineers in a
     new accelerator and breaks a seal. *)
  ignore
    (Engine.schedule e ~delay:15.0 (fun () ->
         enclosure_ok := false;
         inventory := [ "srv-1"; "srv-2"; "rogue-gpu-9" ]));
  Engine.run e ~until:25.0;
  (match Audit_program.reports prog with
  | [ r1; r2 ] ->
    Alcotest.(check bool) "first passes" true r1.Audit_program.passed;
    Alcotest.(check bool) "second fails" false r2.Audit_program.passed;
    Alcotest.(check int) "two findings" 2 (List.length r2.Audit_program.findings)
  | rs -> Alcotest.failf "expected 2 reports, got %d" (List.length rs));
  Alcotest.(check (option (float 1e-9))) "last pass at t=10" (Some 10.0)
    (Audit_program.last_passed_at prog);
  Audit_program.stop prog

let test_audit_program_missing_hardware () =
  let e = Engine.create () in
  let probe =
    {
      Audit_program.enclosure_intact = (fun () -> true);
      hardware_inventory = (fun () -> [ "srv-1" ]);
      kill_switches_tested = (fun () -> true);
    }
  in
  let prog =
    Audit_program.create ~engine:e ~probe
      ~expected_inventory:[ "srv-1"; "srv-2" ] ~cadence:5.0 ()
  in
  Engine.run e ~until:6.0;
  (match Audit_program.reports prog with
  | [ r ] -> Alcotest.(check bool) "missing hardware fails" false r.Audit_program.passed
  | _ -> Alcotest.fail "one report expected");
  Audit_program.stop prog

(* --------------------------- Enforcement --------------------------- *)

module Enforcement = Guillotine_policy.Enforcement

let violation ob = { Regulation.obligation = ob; detail = "test" }

let test_enforcement_ladder () =
  let e = Enforcement.create () in
  let doc = [ violation Regulation.Provide_documentation ] in
  Alcotest.(check (option string)) "1st: notice" (Some "formal notice")
    (Option.map Enforcement.action_to_string (Enforcement.act e doc));
  Alcotest.(check (option string)) "2nd: fine 1M" (Some "fine of $1000000")
    (Option.map Enforcement.action_to_string (Enforcement.act e doc));
  Alcotest.(check (option string)) "3rd: fine 2M" (Some "fine of $2000000")
    (Option.map Enforcement.action_to_string (Enforcement.act e doc));
  Alcotest.(check (option string)) "4th: suspension" (Some "license suspension")
    (Option.map Enforcement.action_to_string (Enforcement.act e doc));
  Alcotest.(check bool) "license gone" false (Enforcement.license_active e);
  ignore (Enforcement.act e doc);
  Alcotest.(check (option string)) "6th: shutdown" (Some "shutdown order")
    (Option.map Enforcement.action_to_string (Enforcement.act e doc));
  Alcotest.(check bool) "shutdown" true (Enforcement.shutdown_ordered e);
  Alcotest.(check (float 1e-3)) "fines total" 3e6 (Enforcement.total_fines e);
  Alcotest.(check int) "six offences" 6 (Enforcement.offences e)

let test_enforcement_clean_inspections_are_free () =
  let e = Enforcement.create () in
  Alcotest.(check bool) "clean = no action" true (Enforcement.act e [] = None);
  Alcotest.(check int) "no offence" 0 (Enforcement.offences e);
  Alcotest.(check bool) "license intact" true (Enforcement.license_active e)

let test_enforcement_guillotine_violation_is_capital () =
  (* A systemic model off Guillotine short-circuits the whole ladder. *)
  let e = Enforcement.create () in
  match Enforcement.act e [ violation Regulation.Run_on_guillotine ] with
  | Some Enforcement.Shutdown_order ->
    Alcotest.(check bool) "immediate shutdown" true (Enforcement.shutdown_ordered e)
  | _ -> Alcotest.fail "off-guillotine systemic model = immediate shutdown"

(* --------------------------- Safe harbor --------------------------- *)

let test_liability_shapes () =
  let harm = 1e8 in
  let l_g = Safe_harbor.liability ~on_guillotine:true ~harm_damages:harm in
  let l_p = Safe_harbor.liability ~on_guillotine:false ~harm_damages:harm in
  Alcotest.(check (float 1e-6)) "safe harbor x0.2" (0.2 *. harm) l_g;
  Alcotest.(check (float 1e-6)) "plain pays full" harm l_p

let test_break_even_crossover () =
  let base_cost = 1e7 and harm_damages = 1e9 and overhead = 0.3 in
  match
    Safe_harbor.break_even_harm_probability ~guillotine_overhead:overhead ~base_cost
      ~harm_damages ()
  with
  | None -> Alcotest.fail "crossover should exist"
  | Some p ->
    (* Below p, plain is cheaper; above, Guillotine wins. *)
    let cost on_guillotine prob =
      Safe_harbor.operating_cost ~guillotine_overhead:overhead ~base_cost
        ~harm_probability:prob ~harm_damages ~on_guillotine
    in
    let g = true and n = false in
    Alcotest.(check bool) "plain cheaper below" true (cost n (p /. 2.) < cost g (p /. 2.));
    Alcotest.(check bool) "guillotine cheaper above" true
      (cost g (p *. 2.) < cost n (p *. 2.));
    (* At the break-even point the two costs agree. *)
    Alcotest.(check bool) "equal at p" true (Float.abs (cost g p -. cost n p) < 1.0)

let test_break_even_none_when_harm_small () =
  match
    Safe_harbor.break_even_harm_probability ~guillotine_overhead:0.5 ~base_cost:1e9
      ~harm_damages:1e6 ()
  with
  | None -> ()
  | Some _ -> Alcotest.fail "tiny harms can't justify the overhead"

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "policy"
    [
      ( "risk",
        [
          Alcotest.test_case "tiny is minimal" `Quick test_tiny_model_minimal;
          Alcotest.test_case "midsize is limited" `Quick test_midsize_model_limited;
          Alcotest.test_case "frontier is systemic" `Quick test_frontier_model_systemic;
          Alcotest.test_case "hard systemic overrides" `Quick test_hard_systemic_overrides;
          Alcotest.test_case "dup capabilities once" `Quick
            test_duplicate_capabilities_count_once;
          qc prop_score_monotone_in_capabilities;
        ] );
      ( "regulation",
        [
          Alcotest.test_case "obligations scale" `Quick test_obligations_scale_with_tier;
          Alcotest.test_case "compliant systemic" `Quick test_compliant_systemic_deployment;
          Alcotest.test_case "violations reported" `Quick test_violations_reported;
          Alcotest.test_case "audit overdue" `Quick test_audit_overdue;
          Alcotest.test_case "minimal unburdened" `Quick test_minimal_model_needs_nothing;
        ] );
      ( "audit-program",
        [
          Alcotest.test_case "tamper + new hardware" `Quick
            test_audit_program_detects_tamper_and_new_hardware;
          Alcotest.test_case "missing hardware" `Quick test_audit_program_missing_hardware;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "escalation ladder" `Quick test_enforcement_ladder;
          Alcotest.test_case "clean inspections free" `Quick
            test_enforcement_clean_inspections_are_free;
          Alcotest.test_case "guillotine violation capital" `Quick
            test_enforcement_guillotine_violation_is_capital;
        ] );
      ( "safe-harbor",
        [
          Alcotest.test_case "liability shapes" `Quick test_liability_shapes;
          Alcotest.test_case "break-even crossover" `Quick test_break_even_crossover;
          Alcotest.test_case "no crossover for tiny harms" `Quick
            test_break_even_none_when_harm_small;
        ] );
    ]
