module Engine = Guillotine_sim.Engine

type finding =
  | Enclosure_tamper of string
  | Unexpected_hardware of string
  | Kill_switch_unmaintained of string

let finding_to_string = function
  | Enclosure_tamper d -> "enclosure tamper: " ^ d
  | Unexpected_hardware d -> "unexpected hardware: " ^ d
  | Kill_switch_unmaintained d -> "kill switch unmaintained: " ^ d

type report = { at : float; findings : finding list; passed : bool }

type site_probe = {
  enclosure_intact : unit -> bool;
  hardware_inventory : unit -> string list;
  kill_switches_tested : unit -> bool;
}

type t = {
  engine : Engine.t;
  probe : site_probe;
  expected : string list;
  on_report : report -> unit;
  mutable reports : report list; (* reversed *)
  mutable stopped : bool;
}

let perform t =
  let findings = ref [] in
  if not (t.probe.enclosure_intact ()) then
    findings := Enclosure_tamper "seal broken or impedance anomaly" :: !findings;
  let inventory = t.probe.hardware_inventory () in
  (* New hardware is as alarming as missing hardware: a model may have
     socially engineered an "upgrade" (§3.2). *)
  List.iter
    (fun serial ->
      if not (List.mem serial t.expected) then
        findings := Unexpected_hardware serial :: !findings)
    inventory;
  List.iter
    (fun serial ->
      if not (List.mem serial inventory) then
        findings := Unexpected_hardware ("missing: " ^ serial) :: !findings)
    t.expected;
  if not (t.probe.kill_switches_tested ()) then
    findings := Kill_switch_unmaintained "actuation test failed or skipped" :: !findings;
  let findings = List.rev !findings in
  let report =
    { at = Engine.now t.engine; findings; passed = findings = [] }
  in
  t.reports <- report :: t.reports;
  t.on_report report

let create ~engine ~probe ~expected_inventory ~cadence ?(on_report = fun _ -> ())
    () =
  if cadence <= 0.0 then invalid_arg "Audit_program.create: cadence must be positive";
  let t =
    {
      engine;
      probe;
      expected = expected_inventory;
      on_report;
      reports = [];
      stopped = false;
    }
  in
  ignore
    (Engine.every engine ~period:cadence (fun () ->
         if t.stopped then false
         else begin
           perform t;
           true
         end));
  t

let reports t = List.rev t.reports

let last_passed_at t =
  let rec find = function
    | [] -> None
    | r :: rest -> if r.passed then Some r.at else find rest
  in
  find t.reports

let stop t = t.stopped <- true
