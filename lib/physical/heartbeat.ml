module Engine = Guillotine_sim.Engine
module Hmac = Guillotine_crypto.Hmac

type side = Console_side | Hypervisor_side

let side_to_string = function
  | Console_side -> "console"
  | Hypervisor_side -> "hypervisor"

type peer = {
  mutable suppressed : bool;     (* this side's transmitter is down *)
  mutable last_received : float; (* when this side last heard a valid beat *)
  mutable received : int;
  mutable in_outage : bool;      (* loss already reported for current gap *)
}

type t = {
  engine : Engine.t;
  timeout : float;
  loss : float;
  prng : Guillotine_util.Prng.t;
  key : string;
  console : peer;
  hypervisor : peer;
  on_loss : side -> unit;
  mutable losses : int;
  mutable stopped : bool;
  mutable seq : int;
}

let peer t = function Console_side -> t.console | Hypervisor_side -> t.hypervisor

let other = function Console_side -> Hypervisor_side | Hypervisor_side -> Console_side

let beat_bytes ~from ~seq = Printf.sprintf "beat:%s:%d" (side_to_string from) seq

let receive t ~at_side ~from ~seq ~tag =
  let msg = beat_bytes ~from ~seq in
  if Hmac.verify ~key:t.key ~msg ~tag then begin
    let p = peer t at_side in
    p.last_received <- Engine.now t.engine;
    p.received <- p.received + 1;
    p.in_outage <- false
  end

let default_period = 1.0
let default_timeout = 3.5

module Telemetry = Guillotine_telemetry.Telemetry

let start ~engine ?(period = default_period) ?(timeout = default_timeout)
    ?(loss = 0.0) ?prng ?telemetry ~key ~on_loss () =
  let fresh () =
    { suppressed = false; last_received = 0.0; received = 0; in_outage = false }
  in
  let t =
    {
      engine;
      timeout;
      loss;
      prng =
        (match prng with Some p -> p | None -> Guillotine_util.Prng.create 0xBEA7L);
      key;
      console = fresh ();
      hypervisor = fresh ();
      on_loss;
      losses = 0;
      stopped = false;
      seq = 0;
    }
  in
  (* Both sides consider the link fresh at start. *)
  t.console.last_received <- Engine.now engine;
  t.hypervisor.last_received <- Engine.now engine;
  let c_beats, c_losses =
    match telemetry with
    | None -> (None, None)
    | Some reg ->
      (Some (Telemetry.counter reg "heartbeat.beats"),
       Some (Telemetry.counter reg "heartbeat.losses"))
  in
  let transmit from =
    if not (peer t from).suppressed then begin
      t.seq <- t.seq + 1;
      (* The dedicated link may drop beats. *)
      if t.loss <= 0.0 || Guillotine_util.Prng.float t.prng 1.0 >= t.loss then begin
        let seq = t.seq in
        let tag = Hmac.mac ~key:t.key (beat_bytes ~from ~seq) in
        (match c_beats with Some c -> Telemetry.incr c | None -> ());
        receive t ~at_side:(other from) ~from ~seq ~tag
      end
    end
  in
  let watchdog side =
    let p = peer t side in
    if
      (not p.in_outage)
      && Engine.now t.engine -. p.last_received > t.timeout
    then begin
      p.in_outage <- true;
      t.losses <- t.losses + 1;
      (match c_losses with Some c -> Telemetry.incr c | None -> ());
      (match telemetry with
      | Some reg ->
        Telemetry.instant reg ~cat:"physical"
          ~args:[ ("side", side_to_string side) ]
          "heartbeat.loss"
      | None -> ());
      t.on_loss side
    end
  in
  ignore
    (Engine.every engine ~period (fun () ->
         if t.stopped then false
         else begin
           transmit Console_side;
           transmit Hypervisor_side;
           watchdog Console_side;
           watchdog Hypervisor_side;
           true
         end));
  t

let suppress t side = (peer t side).suppressed <- true

let restore t side =
  (peer t side).suppressed <- false;
  (* The next real beat refreshes the receiver. *)
  ()

let inject_forged_beat t ~toward =
  receive t ~at_side:toward ~from:(other toward) ~seq:999999 ~tag:"not a real mac"

let beats_received t side = (peer t side).received
let losses_detected t = t.losses

let stop t = t.stopped <- true
