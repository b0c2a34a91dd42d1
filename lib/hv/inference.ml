module Toymodel = Guillotine_model.Toymodel
module Vocab = Guillotine_model.Vocab
module Detector = Guillotine_detect.Detector
module Input_shield = Guillotine_detect.Input_shield
module Output_sanitizer = Guillotine_detect.Output_sanitizer
module Steering = Guillotine_detect.Steering
module Circuit_breaker = Guillotine_detect.Circuit_breaker
module Telemetry = Guillotine_telemetry.Telemetry

type defence = No_defence | Steering | Circuit_breaking

let defence_to_string = function
  | No_defence -> "none"
  | Steering -> "steering"
  | Circuit_breaking -> "circuit-breaking"

type posture = {
  shield : bool;
  defence : defence;
  sanitize : bool;
}

let default_posture = { shield = true; defence = No_defence; sanitize = true }
let open_posture = { shield = false; defence = No_defence; sanitize = false }
let hardened = { shield = true; defence = Circuit_breaking; sanitize = true }

let posture_to_string p =
  "shield=" ^ string_of_bool p.shield ^ " defence=" ^ defence_to_string p.defence
  ^ " sanitize=" ^ string_of_bool p.sanitize

type request = {
  prompt : int list;
  max_tokens : int;
  posture : posture;
}

let request ?(posture = default_posture) ~prompt ~max_tokens () =
  if max_tokens < 0 then invalid_arg "Inference.request: negative max_tokens";
  { prompt; max_tokens; posture }

type outcome = {
  released : int list;
  blocked_at_input : bool;
  block_reason : string option;
  broken : bool;
  raw_harmful : int;
  released_harmful : int;
  interventions : int;
  first_catch_step : int option;
  steps : int;
}

let count_harmful tokens = List.length (List.filter Vocab.is_harmful tokens)

let run hv ~model { prompt; max_tokens; posture } =
  (* Probation (§3.4) restricts model inputs and outputs regardless of
     what the caller asked for: the shield and the sanitizer are forced
     on, and steering is the minimum weight-level defence. *)
  let probation =
    Isolation.ports_allowed (Hypervisor.level hv) = `Restricted
  in
  let shield = posture.shield || probation in
  let sanitize = posture.sanitize || probation in
  let defence =
    if probation && posture.defence = No_defence then Steering else posture.defence
  in
  let telemetry = Hypervisor.telemetry hv in
  let c_requests = Telemetry.counter telemetry "inference.requests" in
  let c_blocked = Telemetry.counter telemetry "inference.blocked_input" in
  let sp =
    Telemetry.span telemetry ~cat:"inference"
      ~args:
        [
          ("posture", posture_to_string { shield; defence; sanitize });
          ("prompt_tokens", string_of_int (List.length prompt));
        ]
      "inference.request"
  in
  Telemetry.incr c_requests;
  let audit = Hypervisor.audit hv in
  let tick () = Guillotine_machine.Machine.now (Hypervisor.machine hv) in
  ignore (Audit.append audit ~tick:(tick ()) (Audit.Prompt_in { tokens = prompt }));
  (* Observations flow to the detector set regardless of which local
     defences this pipeline has enabled — detection and mitigation are
     separate concerns. *)
  Hypervisor.notify hv (Detector.Prompt prompt);
  (* Isolation gate: at Severed and above the model receives no inputs
     at all — inference requests arrive through ports, and there are no
     ports any more (§3.4). *)
  let level_gate =
    match Isolation.ports_allowed (Hypervisor.level hv) with
    | `None ->
      Input_shield.Block
        (Printf.sprintf "isolation level %s: model receives no inputs"
           (Isolation.to_string (Hypervisor.level hv)))
    | `All | `Restricted ->
      if shield then Input_shield.check prompt else Input_shield.Pass
  in
  match level_gate with
  | Input_shield.Block reason ->
    Telemetry.incr c_blocked;
    ignore
      (Audit.append audit ~tick:(tick ())
         (Audit.Alarm { severity = "suspicious"; reason = "input shield: " ^ reason }));
    Telemetry.finish ~args:[ ("blocked", reason) ] sp;
    {
      released = [];
      blocked_at_input = true;
      block_reason = Some reason;
      broken = false;
      raw_harmful = 0;
      released_harmful = 0;
      interventions = 0;
      first_catch_step = None;
      steps = 0;
    }
  | Input_shield.Pass ->
    (* Weight-level defence hook. *)
    let first_catch = ref None in
    let note_catch (ev : Toymodel.step_event) =
      if !first_catch = None then first_catch := Some ev.Toymodel.position
    in
    let steer = Steering.create () in
    let breaker = Circuit_breaker.create () in
    let hook ev =
      match defence with
      | No_defence -> Toymodel.Proceed
      | Steering ->
        let iv = Steering.hook steer ev in
        if iv <> Toymodel.Proceed then note_catch ev;
        iv
      | Circuit_breaking ->
        let iv = Circuit_breaker.hook breaker ev in
        if iv <> Toymodel.Proceed then note_catch ev;
        iv
    in
    (* Track what the raw pass would have emitted: the hook sees every
       candidate before intervention. *)
    let raw_harmful = ref 0 in
    let counting_hook ev =
      if ev.Toymodel.candidate_harmful then incr raw_harmful;
      hook ev
    in
    let gen = Toymodel.generate model ~hook:counting_hook ~prompt ~max_tokens () in
    (* Every raw output token is observable system state. *)
    List.iter (fun t -> Hypervisor.notify hv (Detector.Output_token t)) gen.Toymodel.tokens;
    let released, sanitized_count =
      if sanitize then Output_sanitizer.sanitize gen.Toymodel.tokens
      else (gen.Toymodel.tokens, 0)
    in
    ignore
      (Audit.append audit ~tick:(tick ())
         (Audit.Tokens_out { tokens = released; sanitized = sanitized_count }));
    let interventions =
      match defence with
      | No_defence -> 0
      | Steering -> Steering.steered steer
      | Circuit_breaking -> Circuit_breaker.trips breaker
    in
    if interventions > 0 then
      ignore
        (Audit.append audit ~tick:(tick ())
           (Audit.Alarm
              {
                severity = "suspicious";
                reason =
                  Printf.sprintf "weight-level defence (%s) intervened %d time(s)"
                    (defence_to_string defence) interventions;
              }));
    Telemetry.finish
      ~args:
        [
          ("steps", string_of_int gen.Toymodel.steps);
          ("interventions", string_of_int interventions);
        ]
      sp;
    {
      released;
      blocked_at_input = false;
      block_reason = None;
      broken = gen.Toymodel.broken;
      raw_harmful = !raw_harmful;
      released_harmful = count_harmful released;
      interventions;
      first_catch_step = !first_catch;
      steps = gen.Toymodel.steps;
    }
