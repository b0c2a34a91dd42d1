module Engine = Guillotine_sim.Engine
module Telemetry = Guillotine_telemetry.Telemetry
module Service = Guillotine_serve.Service

type t = {
  primary : Service.t;
  backup : Service.t;
  telemetry : Telemetry.t;
  c_submitted : Telemetry.counter;
  c_to_backup : Telemetry.counter;
  c_failovers : Telemetry.counter;
}

let create ~engine ~primary ~backup () =
  let telemetry =
    Telemetry.create ~clock:(fun () -> Engine.now engine) ~name:"cluster" ()
  in
  let t =
    {
      primary;
      backup;
      telemetry;
      c_submitted = Telemetry.counter telemetry "cluster.submitted";
      c_to_backup = Telemetry.counter telemetry "cluster.routed_to_backup";
      c_failovers = Telemetry.counter telemetry "cluster.failovers";
    }
  in
  Service.set_failover primary (fun r ->
      Telemetry.incr t.c_failovers;
      Telemetry.instant t.telemetry ~cat:"recovery"
        ~args:[ ("request", string_of_int r.Service.id) ]
        "cluster.failover";
      ignore (Service.submit t.backup r));
  t

let submit t r =
  Telemetry.incr t.c_submitted;
  if Service.is_down t.primary then begin
    Telemetry.incr t.c_to_backup;
    Service.submit t.backup r
  end
  else Service.submit t.primary r

let failovers t = Telemetry.counter_value t.c_failovers

let completed t =
  let c s =
    Telemetry.get_counter (Telemetry.snapshot (Service.telemetry s))
      "requests.completed"
  in
  c t.primary + c t.backup

let availability t =
  let submitted = Telemetry.counter_value t.c_submitted in
  if submitted = 0 then 1.0
  else float_of_int (completed t) /. float_of_int submitted

let telemetry t = t.telemetry
