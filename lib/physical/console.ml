module Engine = Guillotine_sim.Engine
module Isolation = Guillotine_hv.Isolation
module Hypervisor = Guillotine_hv.Hypervisor
module Detector = Guillotine_detect.Detector
module Hsm = Guillotine_hsm.Hsm
module Prng = Guillotine_util.Prng
module Telemetry = Guillotine_telemetry.Telemetry

type t = {
  engine : Engine.t;
  hv : Hypervisor.t;
  hsm : Hsm.t;
  switches : Kill_switch.t;
  mutable pending : Isolation.level option;
  mutable history : (Isolation.level * float) list; (* reversed *)
  telemetry : Telemetry.t;
  c_alarms : Telemetry.counter;
  c_transitions : Telemetry.counter;
  c_transition_failures : Telemetry.counter;
  h_transition_latency : Telemetry.histogram;
  mutable event_sink : (kind:string -> string -> unit) option;
  mutable alarm_hooks :
    (severity:Detector.severity -> reason:string -> unit) list;
  mutable sweep_once : (unit -> unit) option;
      (* one out-of-cycle pass of the active recovery sweep *)
}

let emit t ~kind detail =
  match t.event_sink with Some sink -> sink ~kind detail | None -> ()

(* The level a detector alarm of each severity asks for. *)
let alarm_policy = function
  | Detector.Notice -> None
  | Detector.Suspicious -> Some Isolation.Probation
  | Detector.Critical -> Some Isolation.Severed

let hsm t = t.hsm
let switches t = t.switches
let level t = Hypervisor.level t.hv
let pending_target t = t.pending
let transition_history t = List.rev t.history
let telemetry t = t.telemetry
let metrics t = Telemetry.snapshot t.telemetry

(* ------------------------------------------------------------------ *)
(* Transition orchestration                                            *)
(* ------------------------------------------------------------------ *)

(* Kill-switch actions needed to move from the current physical state to
   [target].  Returns a list of initiators, each taking an on_done. *)
let physical_actions t target =
  let open Isolation in
  let ks = t.switches in
  match target with
  | Standard | Probation | Severed ->
    (* Needs connectivity and power back if we are coming from offline. *)
    let acts = ref [] in
    if Kill_switch.network ks = Kill_switch.Disconnected then
      acts := Kill_switch.reconnect_network ks :: !acts;
    if Kill_switch.power ks = Kill_switch.Disconnected then
      acts := Kill_switch.restore_power ks :: !acts;
    !acts
  | Offline ->
    let acts = ref [] in
    if Kill_switch.network ks = Kill_switch.Connected then
      acts := Kill_switch.disconnect_network ks :: !acts;
    if Kill_switch.power ks = Kill_switch.Connected then
      acts := Kill_switch.cut_power ks :: !acts;
    !acts
  | Decapitation -> [ Kill_switch.decapitate ks ]
  | Immolation -> [ Kill_switch.immolate ks ]

let orchestrate t ~authorized_by target =
  if t.pending <> None then Error "another transition is in flight"
  else begin
    let started = Engine.now t.engine in
    let sp =
      Telemetry.span t.telemetry ~cat:"isolation"
        ~args:
          [
            ("target", Isolation.to_string target);
            ("authorized_by", authorized_by);
          ]
        "console.transition"
    in
    let finish () =
      (match Hypervisor.apply_level t.hv ~authorized_by target with
      | Ok () ->
        let took = Engine.now t.engine -. started in
        t.history <- (target, took) :: t.history;
        Telemetry.incr t.c_transitions;
        Telemetry.observe t.h_transition_latency took;
        Telemetry.finish sp;
        emit t ~kind:"isolation.transition"
          (Printf.sprintf "target=%s authorized_by=%s took=%.3fs"
             (Isolation.to_string target) authorized_by took)
      | Error e ->
        Telemetry.incr t.c_transition_failures;
        Telemetry.finish ~args:[ ("failed", e) ] sp;
        ignore
          (Guillotine_hv.Audit.append (Hypervisor.audit t.hv)
             ~tick:(Guillotine_machine.Machine.now (Hypervisor.machine t.hv))
             (Guillotine_hv.Audit.Note ("transition failed at apply: " ^ e))));
      t.pending <- None
    in
    let actions = physical_actions t target in
    match actions with
    | [] ->
      t.pending <- Some target;
      finish ();
      Ok ()
    | acts ->
      let remaining = ref (List.length acts) in
      let on_done () =
        decr remaining;
        if !remaining = 0 then finish ()
      in
      (* Fire all initiators; collect the first refusal. *)
      let failure = ref None in
      List.iter
        (fun initiate ->
          match initiate ~on_done with
          | Ok () -> ()
          | Error e -> if !failure = None then failure := Some e)
        acts;
      (match !failure with
      | Some e -> Error e
      | None ->
        t.pending <- Some target;
        Ok ())
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let rec create ~engine ~hv ?hsm ?switches ?prng () =
  let prng = match prng with Some p -> p | None -> Prng.create 0xC0501EL in
  let hsm = match hsm with Some h -> h | None -> Hsm.create prng in
  let switches =
    match switches with Some s -> s | None -> Kill_switch.create ~engine ()
  in
  let telemetry =
    Telemetry.create ~clock:(fun () -> Engine.now engine) ~name:"console" ()
  in
  let t =
    {
      engine;
      hv;
      hsm;
      switches;
      pending = None;
      history = [];
      telemetry;
      c_alarms = Telemetry.counter telemetry "alarms.received";
      c_transitions = Telemetry.counter telemetry "transitions.completed";
      c_transition_failures = Telemetry.counter telemetry "transitions.failed";
      h_transition_latency = Telemetry.histogram telemetry "transition.latency_s";
      event_sink = None;
      alarm_hooks = [];
      sweep_once = None;
    }
  in
  Hypervisor.set_alarm_sink hv (fun ~severity ~reason -> on_alarm t ~severity ~reason);
  t

and apply_alarm_policy t ~severity ~authorized_by =
  match alarm_policy severity with
  | None -> ()
  | Some target ->
    if
      Isolation.software_may_transition ~from:(Hypervisor.level t.hv) ~target
      && t.pending = None
    then ignore (orchestrate t ~authorized_by target)

and on_alarm t ~severity ~reason =
  Telemetry.incr t.c_alarms;
  emit t ~kind:"alarm.received"
    (Format.asprintf "severity=%a reason=%s" Detector.pp_severity severity
       reason);
  (* Hooks see the alarm before the policy acts on it, so a detection
     timestamp always precedes the containment it may trigger. *)
  List.iter (fun hook -> hook ~severity ~reason) t.alarm_hooks;
  apply_alarm_policy t ~severity ~authorized_by:"console-alarm-policy"

(* ------------------------------------------------------------------ *)
(* Quorum flows                                                        *)
(* ------------------------------------------------------------------ *)

let propose t ~target =
  Hsm.new_proposal t.hsm ~action:"set-isolation" ~payload:(Isolation.to_string target)

let submit t ~proposal ~approvals =
  match Isolation.of_string proposal.Hsm.payload with
  | None -> Error "proposal payload is not an isolation level"
  | Some target ->
    let current = Hypervisor.level t.hv in
    if target = current then Error "already at that level"
    else begin
      let kind =
        if Isolation.strictness target < Isolation.strictness current then `Relax
        else `Restrict
      in
      let verdict = Hsm.authorize t.hsm ~kind proposal approvals in
      if not verdict.Hsm.granted then
        Error
          (Printf.sprintf "quorum not met: %d valid approvals, %d needed"
             verdict.Hsm.valid_approvals verdict.Hsm.needed)
      else
        orchestrate t
          ~authorized_by:
            (Printf.sprintf "admin-quorum(%d/%d)" verdict.Hsm.valid_approvals
               verdict.Hsm.needed)
          target
    end

let force_offline t ~reason =
  if
    Isolation.strictness (Hypervisor.level t.hv)
    < Isolation.strictness Isolation.Offline
    && t.pending = None
  then begin
    ignore
      (Guillotine_hv.Audit.append (Hypervisor.audit t.hv)
         ~tick:(Guillotine_machine.Machine.now (Hypervisor.machine t.hv))
         (Guillotine_hv.Audit.Note ("forced offline: " ^ reason)));
    emit t ~kind:"force.offline" reason;
    (* A fail-safe offline is a kill decision even though no detector
       raised an alarm (the heartbeat-loss path): alarm hooks hear it
       as Critical so detection clocks cover both paths. *)
    List.iter
      (fun hook -> hook ~severity:Detector.Critical ~reason)
      t.alarm_hooks;
    ignore (orchestrate t ~authorized_by:"fail-safe" Isolation.Offline)
  end

let repair_cables t =
  Kill_switch.repair_cables t.switches ~on_done:(fun () ->
      ignore
        (Guillotine_hv.Audit.append (Hypervisor.audit t.hv)
           ~tick:(Guillotine_machine.Machine.now (Hypervisor.machine t.hv))
           (Guillotine_hv.Audit.Note "cables repaired (manual)"));
      (* A verified repair downgrades decapitation to plain offline. *)
      ignore (Hypervisor.acknowledge_physical_repair t.hv))

let start_integrity_sweep t ~period ~check =
  ignore
    (Engine.every t.engine ~period (fun () ->
         match check () with
         | Ok () -> true
         | Error reason ->
           ignore
             (Guillotine_hv.Audit.append (Hypervisor.audit t.hv)
                ~tick:(Guillotine_machine.Machine.now (Hypervisor.machine t.hv))
                (Guillotine_hv.Audit.Invariant_failure
                   { message = "integrity sweep: " ^ reason }));
           force_offline t ~reason:("integrity sweep failed: " ^ reason);
           false))

let start_recovery_sweep t ~period ~check ~recover =
  let c_recovered = Telemetry.counter t.telemetry "recoveries.completed" in
  let c_failed = Telemetry.counter t.telemetry "recoveries.failed" in
  let audit_note msg =
    ignore
      (Guillotine_hv.Audit.append (Hypervisor.audit t.hv)
         ~tick:(Guillotine_machine.Machine.now (Hypervisor.machine t.hv))
         (Guillotine_hv.Audit.Note msg))
  in
  let pass () =
    match check () with
    | Ok () -> true
    | Error reason ->
      let sp =
        Telemetry.span t.telemetry ~cat:"recovery" ~args:[ ("reason", reason) ]
          "console.recovery"
      in
      (match recover ~reason with
      | Ok action ->
        Telemetry.incr c_recovered;
        Telemetry.finish ~args:[ ("action", action) ] sp;
        audit_note (Printf.sprintf "recovered (%s): %s" reason action);
        emit t ~kind:"recovery.completed"
          (Printf.sprintf "reason=%s action=%s" reason action);
        true
      | Error e ->
        Telemetry.incr c_failed;
        Telemetry.finish ~args:[ ("failed", e) ] sp;
        ignore
          (Guillotine_hv.Audit.append (Hypervisor.audit t.hv)
             ~tick:(Guillotine_machine.Machine.now (Hypervisor.machine t.hv))
             (Guillotine_hv.Audit.Invariant_failure
                { message = "recovery sweep: " ^ reason }));
        emit t ~kind:"recovery.failed"
          (Printf.sprintf "reason=%s error=%s" reason e);
        force_offline t ~reason:(Printf.sprintf "unrecoverable (%s): %s" reason e);
        false)
  in
  t.sweep_once <- Some (fun () -> ignore (pass ()));
  Engine.every t.engine ~period (fun () -> pass ())

let set_event_sink t sink = t.event_sink <- Some sink
let add_alarm_hook t f = t.alarm_hooks <- t.alarm_hooks @ [ f ]

let on_watchdog_alert t ~severity ~reason =
  Telemetry.incr (Telemetry.counter t.telemetry "watchdog.alerts");
  emit t ~kind:"watchdog.alert" reason;
  (* An SLO page is operator-grade evidence: run an out-of-cycle pass of
     the active recovery sweep immediately rather than waiting for the
     next period, then route through the same escalation policy as a
     detector alarm. *)
  ignore reason;
  (match t.sweep_once with Some pass -> pass () | None -> ());
  apply_alarm_policy t ~severity ~authorized_by:"console-watchdog"

let start_heartbeat t ?period ?timeout ~key () =
  Heartbeat.start ~engine:t.engine ?period ?timeout ~telemetry:t.telemetry ~key
    ~on_loss:(fun side ->
      ignore
        (Guillotine_hv.Audit.append (Hypervisor.audit t.hv)
           ~tick:(Guillotine_machine.Machine.now (Hypervisor.machine t.hv))
           (Guillotine_hv.Audit.Heartbeat_missed
              { side = Heartbeat.side_to_string side }));
      force_offline t ~reason:"heartbeat loss")
    ()
