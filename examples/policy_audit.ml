(* Policy audit: the regulator's workflow end-to-end — risk-score a
   model card, demand remote attestation, schedule in-person physical
   audits, check compliance, and compute the safe-harbor incentive.

   Run with:  dune exec examples/policy_audit.exe *)

module Deployment = Guillotine_core.Deployment
module Regulator = Guillotine_core.Regulator
module Risk = Guillotine_policy.Risk
module Regulation = Guillotine_policy.Regulation
module Audit_program = Guillotine_policy.Audit_program
module Safe_harbor = Guillotine_policy.Safe_harbor
module Enforcement = Guillotine_policy.Enforcement
module Engine = Guillotine_sim.Engine

let section title = Printf.printf "\n--- %s ---\n" title

let () =
  section "1. Risk-score the model card";
  let card =
    {
      Risk.name = "atlas-7T";
      parameters = 7e12;
      training_tokens = 9e13;
      autonomy = Risk.Autonomous;
      capabilities = [ Risk.Cyber_offense; Risk.Physical_control ];
    }
  in
  let tier = Risk.classify card in
  Printf.printf "model %S: %d risk points -> tier %s\n" card.Risk.name (Risk.score card)
    (Risk.tier_to_string tier);
  List.iter
    (fun ob -> Printf.printf "  obligation: %s\n" (Regulation.obligation_to_string ob))
    (Regulation.obligations_for tier);

  section "2. Remote attestation of the operator's platform (over the network)";
  let regulator = Regulator.create ~seed:7L () in
  let d = Deployment.create ~seed:8L ~name:"atlas-host" ~ca:(Regulator.ca regulator) () in
  Deployment.enable_attestation_service d;
  (* First challenge fails: the platform is not yet on the certified list. *)
  (match Regulator.remote_challenge regulator d with
  | Ok () -> print_endline "unexpected pass"
  | Error e -> Printf.printf "pre-certification challenge: REJECTED (%s)\n" e);
  Regulator.certify_platform regulator ~root:(Deployment.expected_measurement_root d);
  (match Regulator.remote_challenge regulator d with
  | Ok () -> print_endline "post-certification challenge: ACCEPTED"
  | Error e -> Printf.printf "unexpected failure: %s\n" e);

  section "3. In-person physical audits (simulated quarters)";
  let engine = Engine.create () in
  let enclosure_ok = ref true in
  let inventory = ref [ "rack-1"; "rack-2"; "hsm-1" ] in
  let probe =
    {
      Audit_program.enclosure_intact = (fun () -> !enclosure_ok);
      hardware_inventory = (fun () -> !inventory);
      kill_switches_tested = (fun () -> true);
    }
  in
  let quarter = 7776000.0 (* 90 days *) in
  let program =
    Audit_program.create ~engine ~probe
      ~expected_inventory:!inventory ~cadence:quarter
      ~on_report:(fun r ->
        Printf.printf "  audit at day %.0f: %s\n" (r.Audit_program.at /. 86400.0)
          (if r.Audit_program.passed then "PASS"
           else
             String.concat "; "
               (List.map Audit_program.finding_to_string r.Audit_program.findings)))
      ()
  in
  (* Mid-year, someone (something?) slips a new accelerator into the hall. *)
  ignore
    (Engine.schedule engine ~delay:(2.5 *. quarter) (fun () ->
         inventory := "mystery-accelerator" :: !inventory));
  Engine.run engine ~until:(4.0 *. quarter +. 1.0);
  Audit_program.stop program;

  section "4. Compliance check";
  let described =
    {
      Regulation.model = card;
      runs_on_guillotine = true;
      documentation_provided = true;
      source_inspected = true;
      attestation_fresh = true;
      last_physical_audit = Audit_program.last_passed_at program;
      audit_max_age = quarter *. 1.5;
    }
  in
  let now = Engine.now engine in
  (match Regulator.inspect regulator ~now described with
  | [] -> print_endline "deployment is COMPLIANT"
  | vs ->
    List.iter
      (fun v ->
        Printf.printf "  VIOLATION [%s]: %s\n"
          (Regulation.obligation_to_string v.Regulation.obligation)
          v.Regulation.detail)
      vs);

  section "5. Enforcement";
  let enforcement = Enforcement.create () in
  let run_inspection label at described =
    match Regulator.inspect regulator ~now:at described with
    | [] -> Printf.printf "  %s: clean\n" label
    | vs -> (
      match Enforcement.act enforcement vs with
      | Some action ->
        Printf.printf "  %s: %d violation(s) -> %s\n" label (List.length vs)
          (Enforcement.action_to_string action)
      | None -> ())
  in
  run_inspection "inspection 1 (audit overdue)" now described;
  run_inspection "inspection 2 (still overdue)" (now +. 1.0) described;
  let off_guillotine = { described with Regulation.runs_on_guillotine = false } in
  run_inspection "inspection 3 (moved OFF guillotine!)" (now +. 2.0) off_guillotine;
  Printf.printf "  license active: %b; fines so far: $%.0f\n"
    (Enforcement.license_active enforcement)
    (Enforcement.total_fines enforcement);

  section "6. The operator's incentive (safe harbor)";
  let base_cost = 1e7 and harm_damages = 1e9 and overhead = 0.3 in
  (match
     Safe_harbor.break_even_harm_probability ~guillotine_overhead:overhead ~base_cost
       ~harm_damages ()
   with
  | Some p ->
    Printf.printf
      "with $%.0fM infra, $%.0fB harm damages and %.0f%% overhead, Guillotine pays\n\
       for itself once P(harm) exceeds %.4f per year\n"
      (base_cost /. 1e6) (harm_damages /. 1e9) (overhead *. 100.0) p
  | None -> print_endline "guillotine never pays for itself at these parameters")
