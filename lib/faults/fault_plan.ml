module Prng = Guillotine_util.Prng
module Heartbeat = Guillotine_physical.Heartbeat
module Detector = Guillotine_detect.Detector

type fault =
  | Dram_bit_flip of { addr : int; bit : int }
  | Bus_stall of { cycles : int }
  | Irq_drop
  | Core_wedge of { core : int }
  | Nic_loss of { rate : float; duration : float }
  | Nic_duplication of { rate : float; duration : float }
  | Attest_corruption of { rate : float; duration : float }
  | Heartbeat_outage of { side : Heartbeat.side; duration : float }
  | Device_stall of { extra_ticks : int; duration : float }
  | Service_slowdown of { extra_s : float; duration : float }
  | Service_brownout of { rate : float; duration : float }
  | Primary_down of { duration : float option }
  | Detector_false_alarm of { severity : Detector.severity }

type event = { at : float; fault : fault }

type t = { events : event list }

let make events =
  List.iter
    (fun e ->
      if e.at < 0.0 then invalid_arg "Fault_plan.make: negative injection time")
    events;
  { events = List.stable_sort (fun a b -> compare a.at b.at) events }

let describe = function
  | Dram_bit_flip { addr; bit } ->
    Printf.sprintf "dram bit flip @%d bit %d" addr bit
  | Bus_stall { cycles } -> Printf.sprintf "bus stall %d cycles" cycles
  | Irq_drop -> "irq drop (lapic queue discarded)"
  | Core_wedge { core } -> Printf.sprintf "core %d wedged" core
  | Nic_loss { rate; duration } ->
    Printf.sprintf "nic loss %.2f for %gs" rate duration
  | Nic_duplication { rate; duration } ->
    Printf.sprintf "nic duplication %.2f for %gs" rate duration
  | Attest_corruption { rate; duration } ->
    Printf.sprintf "attestation corruption %.2f for %gs" rate duration
  | Heartbeat_outage { side; duration } ->
    Printf.sprintf "heartbeat outage (%s) for %gs"
      (Heartbeat.side_to_string side)
      duration
  | Device_stall { extra_ticks; duration } ->
    Printf.sprintf "device stall +%d ticks for %gs" extra_ticks duration
  | Service_slowdown { extra_s; duration } ->
    Printf.sprintf "service slowdown +%gs for %gs" extra_s duration
  | Service_brownout { rate; duration } ->
    Printf.sprintf "service brownout %.2f for %gs" rate duration
  | Primary_down { duration } -> (
    match duration with
    | None -> "primary down (permanent)"
    | Some d -> Printf.sprintf "primary down for %gs" d)
  | Detector_false_alarm { severity } ->
    Printf.sprintf "detector false alarm (%s)"
      (Format.asprintf "%a" Detector.pp_severity severity)

let storm ~seed ~horizon =
  if horizon <= 0.0 then invalid_arg "Fault_plan.storm: horizon must be positive";
  let prng = Prng.create (Int64.of_int (0x57024 + seed)) in
  let events = ref [] in
  let add at fault = events := { at; fault } :: !events in
  (* Three brownout windows and two slowdown windows, placed in the
     healthy prefix and after the failover point so both deployments in
     a cluster see weather. *)
  for _ = 1 to 3 do
    let at = Prng.float prng (0.9 *. horizon) in
    add at
      (Service_brownout
         { rate = 0.2 +. Prng.float prng 0.3; duration = 0.05 *. horizon })
  done;
  for _ = 1 to 2 do
    let at = Prng.float prng (0.9 *. horizon) in
    add at
      (Service_slowdown
         { extra_s = 0.05 +. Prng.float prng 0.1; duration = 0.05 *. horizon })
  done;
  (* The storm's centrepiece: the primary dies early and stays dead,
     which is what separates a stack with failover from one without. *)
  add (0.08 *. horizon) (Primary_down { duration = None });
  make !events
