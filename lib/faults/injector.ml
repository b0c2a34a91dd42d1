module Engine = Guillotine_sim.Engine
module Telemetry = Guillotine_telemetry.Telemetry
module Machine = Guillotine_machine.Machine
module Lapic = Guillotine_machine.Lapic
module Core = Guillotine_microarch.Core
module Dram = Guillotine_memory.Dram
module Device = Guillotine_devices.Device
module Fabric = Guillotine_net.Fabric
module Heartbeat = Guillotine_physical.Heartbeat
module Detector = Guillotine_detect.Detector
module Hypervisor = Guillotine_hv.Hypervisor
module Service = Guillotine_serve.Service
module Deployment = Guillotine_core.Deployment

type t = {
  engine : Engine.t;
  telemetry : Telemetry.t;
  c_injected : Telemetry.counter;
  c_cleared : Telemetry.counter;
  c_skipped : Telemetry.counter;
  stall : int ref;
  mutable event_sink : (kind:string -> string -> unit) option;
}

let create ~engine () =
  let telemetry =
    Telemetry.create ~clock:(fun () -> Engine.now engine) ~name:"faults" ()
  in
  {
    engine;
    telemetry;
    c_injected = Telemetry.counter telemetry "faults.injected";
    c_cleared = Telemetry.counter telemetry "faults.cleared";
    c_skipped = Telemetry.counter telemetry "faults.skipped";
    stall = ref 0;
    event_sink = None;
  }

let telemetry t = t.telemetry
let set_event_sink t sink = t.event_sink <- Some sink

let emit t ~kind detail =
  match t.event_sink with Some sink -> sink ~kind detail | None -> ()

let injected t = Telemetry.counter_value t.c_injected
let skipped t = Telemetry.counter_value t.c_skipped

let wrap_device t dev = Device.throttled ~extra:(fun () -> !(t.stall)) dev

let mark t which fault =
  let desc = Fault_plan.describe fault in
  match which with
  | `Injected ->
    Telemetry.incr t.c_injected;
    Telemetry.instant t.telemetry ~cat:"fault" ~args:[ ("fault", desc) ]
      "fault.injected";
    emit t ~kind:"fault.injected" desc
  | `Cleared ->
    Telemetry.incr t.c_cleared;
    Telemetry.instant t.telemetry ~cat:"fault" ~args:[ ("fault", desc) ]
      "fault.cleared";
    emit t ~kind:"fault.cleared" desc
  | `Skipped ->
    Telemetry.incr t.c_skipped;
    Telemetry.instant t.telemetry ~cat:"fault" ~args:[ ("fault", desc) ]
      "fault.skipped";
    emit t ~kind:"fault.skipped" desc

(* Apply one fault now.  Returns a clearing action for timed faults. *)
let apply t ~deployment ~service ~fabric ~heartbeat fault =
  let machine = Option.map Deployment.machine deployment in
  let clear_after duration undo =
    Some
      (fun () ->
        ignore
          (Engine.schedule t.engine ~delay:duration (fun () ->
               undo ();
               mark t `Cleared fault)))
  in
  let applied =
    match fault with
    | Fault_plan.Dram_bit_flip { addr; bit } ->
      Option.map
        (fun m ->
          Dram.flip_bit (Machine.model_dram m) ~addr ~bit;
          None)
        machine
    | Bus_stall { cycles } ->
      Option.map
        (fun m ->
          Machine.charge_hypervisor m cycles;
          None)
        machine
    | Irq_drop ->
      Option.map
        (fun m ->
          ignore (Lapic.drop_pending (Machine.lapic m));
          None)
        machine
    | Core_wedge { core } ->
      Option.map
        (fun m ->
          Core.pause (Machine.model_core m core);
          None)
        machine
    | Nic_loss { rate; duration } ->
      Option.map
        (fun f ->
          Fabric.set_loss f rate;
          clear_after duration (fun () -> Fabric.set_loss f 0.0))
        fabric
    | Nic_duplication { rate; duration } ->
      Option.map
        (fun f ->
          Fabric.set_duplication f rate;
          clear_after duration (fun () -> Fabric.set_duplication f 0.0))
        fabric
    | Attest_corruption { rate; duration } ->
      Option.map
        (fun f ->
          Fabric.set_corruption f rate;
          clear_after duration (fun () -> Fabric.set_corruption f 0.0))
        fabric
    | Heartbeat_outage { side; duration } ->
      Option.map
        (fun hb ->
          Heartbeat.suppress hb side;
          clear_after duration (fun () -> Heartbeat.restore hb side))
        heartbeat
    | Device_stall { extra_ticks; duration } ->
      t.stall := extra_ticks;
      Some (clear_after duration (fun () -> t.stall := 0))
    | Service_slowdown { extra_s; duration } ->
      Option.map
        (fun s ->
          Service.set_slowdown s (fun () -> extra_s);
          clear_after duration (fun () -> Service.set_slowdown s (fun () -> 0.0)))
        service
    | Service_brownout { rate; duration } ->
      Option.map
        (fun s ->
          Service.set_fault s ~rate;
          clear_after duration (fun () -> Service.set_fault s ~rate:0.0))
        service
    | Primary_down { duration } ->
      Option.map
        (fun s ->
          Service.set_down s true;
          match duration with
          | None -> None
          | Some d -> clear_after d (fun () -> Service.set_down s false))
        service
    | Detector_false_alarm { severity } ->
      Option.map
        (fun d ->
          let hv = Deployment.hv d in
          Hypervisor.add_detector hv
            (Detector.one_shot ~name:"injected-false-alarm"
               (Detector.Alarm { severity; reason = "injected false alarm" }));
          (* Provoke the one-shot with an observation every honest
             detector treats as Clear: the alarm is entirely spurious. *)
          Hypervisor.notify hv (Detector.Irq_storm { dropped = 0 });
          None)
        deployment
  in
  match applied with
  | None -> mark t `Skipped fault
  | Some schedule_clear ->
    mark t `Injected fault;
    Option.iter (fun k -> k ()) schedule_clear

let install t ?deployment ?service ?heartbeat (plan : Fault_plan.t) =
  let fabric = Option.map Deployment.fabric deployment in
  List.iter
    (fun { Fault_plan.at; fault } ->
      ignore
        (Engine.schedule_at t.engine ~at (fun () ->
             apply t ~deployment ~service ~fabric ~heartbeat fault)))
    plan.Fault_plan.events
