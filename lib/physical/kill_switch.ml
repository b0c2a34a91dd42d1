module Engine = Guillotine_sim.Engine
module Fabric = Guillotine_net.Fabric
module Telemetry = Guillotine_telemetry.Telemetry

type cable_state = Connected | Disconnected | Destroyed

type t = {
  engine : Engine.t;
  fabric : Fabric.t option;
  net_addrs : int list;
  mutable network : cable_state;
  mutable power : cable_state;
  mutable immolated : bool;
  telemetry : Telemetry.t;
  c_actuations : Telemetry.counter;
  mutable event_sink : (kind:string -> string -> unit) option;
}

let latencies =
  [
    ("disconnect", 0.5);
    ("reconnect", 5.0);
    ("power_cut", 2.0);
    ("power_on", 10.0);
    ("decapitate", 1.0);
    ("repair", 3600.0);
    ("immolate", 30.0);
  ]

let create ~engine ?fabric ?(net_addrs = []) () =
  let telemetry =
    Telemetry.create ~clock:(fun () -> Engine.now engine) ~name:"switches" ()
  in
  {
    engine;
    fabric;
    net_addrs;
    network = Connected;
    power = Connected;
    immolated = false;
    telemetry;
    c_actuations = Telemetry.counter telemetry "actuations";
    event_sink = None;
  }

let network t = t.network
let power t = t.power
let immolated t = t.immolated
let telemetry t = t.telemetry
let metrics t = Telemetry.snapshot t.telemetry

let latency_of name =
  match List.assoc_opt name latencies with
  | Some l -> l
  | None -> invalid_arg ("Kill_switch.latency_of: unknown actuation " ^ name)

let set_event_sink t sink = t.event_sink <- Some sink

let emit t ~kind detail =
  match t.event_sink with Some sink -> sink ~kind detail | None -> ()

let actuate t name ~on_done apply =
  Telemetry.incr t.c_actuations;
  Telemetry.incr (Telemetry.counter t.telemetry ("actuations." ^ name));
  emit t ~kind:"kill_switch.initiated" name;
  let sp = Telemetry.span t.telemetry ~cat:"physical" ("switch." ^ name) in
  ignore
    (Engine.schedule t.engine ~delay:(latency_of name) (fun () ->
         apply ();
         Telemetry.finish sp;
         emit t ~kind:"kill_switch.actuated" name;
         on_done ()))

let unplug_fabric t =
  match t.fabric with
  | None -> ()
  | Some f -> List.iter (fun addr -> Fabric.detach f ~addr) t.net_addrs

let guard t =
  if t.immolated then Error "deployment immolated"
  else Ok ()

let disconnect_network t ~on_done =
  match guard t with
  | Error _ as e -> e
  | Ok () ->
    if t.network = Destroyed then Error "network cables destroyed"
    else begin
      actuate t "disconnect" ~on_done (fun () ->
          t.network <- Disconnected;
          unplug_fabric t);
      Ok ()
    end

let reconnect_network t ~on_done =
  match guard t with
  | Error _ as e -> e
  | Ok () ->
    if t.network = Destroyed then Error "network cables destroyed: repair first"
    else begin
      actuate t "reconnect" ~on_done (fun () -> t.network <- Connected);
      Ok ()
    end

let cut_power t ~on_done =
  match guard t with
  | Error _ as e -> e
  | Ok () ->
    if t.power = Destroyed then Error "power lines destroyed"
    else begin
      actuate t "power_cut" ~on_done (fun () -> t.power <- Disconnected);
      Ok ()
    end

let restore_power t ~on_done =
  match guard t with
  | Error _ as e -> e
  | Ok () ->
    if t.power = Destroyed then Error "power lines destroyed: repair first"
    else begin
      actuate t "power_on" ~on_done (fun () -> t.power <- Connected);
      Ok ()
    end

let decapitate t ~on_done =
  match guard t with
  | Error _ as e -> e
  | Ok () ->
    actuate t "decapitate" ~on_done (fun () ->
        t.network <- Destroyed;
        t.power <- Destroyed;
        unplug_fabric t);
    Ok ()

let repair_cables t ~on_done =
  match guard t with
  | Error _ as e -> e
  | Ok () ->
    actuate t "repair" ~on_done (fun () ->
        if t.network = Destroyed then t.network <- Disconnected;
        if t.power = Destroyed then t.power <- Disconnected);
    Ok ()

let immolate t ~on_done =
  if t.immolated then Error "already immolated"
  else begin
    actuate t "immolate" ~on_done (fun () ->
        t.immolated <- true;
        t.network <- Destroyed;
        t.power <- Destroyed;
        unplug_fabric t);
    Ok ()
  end
