module Engine = Guillotine_sim.Engine
module Bounded_queue = Guillotine_util.Bounded_queue
module Prng = Guillotine_util.Prng
module Telemetry = Guillotine_telemetry.Telemetry

(* Every service's replicas and queue: a 64-request admission queue;
   0.2 ms per prompt token and 2 ms per output token; a 32-entry prefix
   cache per replica, keyed on the session, that saves 80% of a hit's
   prefill; and a retry delay that doubles from 50 ms. *)
let queue_capacity = 64
let t_prefill = 0.0002
let t_decode = 0.002
let kv_entries = 32
let kv_saving = 0.8
let backoff_base = 0.05

type config = {
  replicas : int;
  overhead_per_request : float;
  overhead_per_token : float;
  max_attempts : int;
  shed_watermark : float;
}

let baseline_config ~replicas =
  {
    replicas;
    overhead_per_request = 0.0;
    overhead_per_token = 0.0;
    max_attempts = 1;
    shed_watermark = 1.0;
  }

let guillotine_config ~replicas =
  {
    (baseline_config ~replicas) with
    overhead_per_request = 0.002;
    overhead_per_token = 0.00002;
  }

let resilient_config ~replicas =
  {
    (guillotine_config ~replicas) with
    max_attempts = 4;
    shed_watermark = 0.75;
  }

type request = {
  id : int;
  session : int;
  prompt_tokens : int;
  output_tokens : int;
}

(* Per-replica KV prefix cache: LRU over session prefixes.  Every
   lookup stamps exactly one key with a fresh clock, so no two entries
   share a stamp and the victim is the unique oldest, whatever order
   [Hashtbl.iter] visits them in. *)
type kv_cache = {
  entries : (int, int) Hashtbl.t; (* session -> lru stamp *)
  capacity : int;
  mutable clock : int;
}

let kv_create capacity = { entries = Hashtbl.create 16; capacity; clock = 0 }

let kv_lookup kv key =
  kv.clock <- kv.clock + 1;
  if Hashtbl.mem kv.entries key then begin
    Hashtbl.replace kv.entries key kv.clock;
    true
  end
  else begin
    if Hashtbl.length kv.entries >= kv.capacity then begin
      (* Evict the LRU entry. *)
      let victim = ref None in
      Hashtbl.iter
        (fun k stamp ->
          match !victim with
          | Some (_, s) when s <= stamp -> ()
          | _ -> victim := Some (k, stamp))
        kv.entries;
      match !victim with Some (k, _) -> Hashtbl.remove kv.entries k | None -> ()
    end;
    Hashtbl.replace kv.entries key kv.clock;
    false
  end

type replica = {
  kv : kv_cache;
  mutable busy : bool;
  mutable busy_time : float; (* cumulative seconds of service *)
}

type pending = { request : request; arrived : float; attempts : int }

type t = {
  engine : Engine.t;
  cfg : config;
  queue : pending Bounded_queue.t;
  replicas : replica array;
  prng : Prng.t;
  mutable kv_hits : int;
  mutable latencies : float list;
  mutable fault_rate : float;
  mutable down : bool;
  mutable slowdown : unit -> float;
  mutable failover : (request -> unit) option;
  mutable event_sink : (kind:string -> string -> unit) option;
  telemetry : Telemetry.t;
  c_submitted : Telemetry.counter;
  c_dropped : Telemetry.counter;
  c_completed : Telemetry.counter;
  c_kv_hits : Telemetry.counter;
  c_retried : Telemetry.counter;
  c_shed : Telemetry.counter;
  c_failed : Telemetry.counter;
  c_failed_over : Telemetry.counter;
  g_queue_depth : Telemetry.gauge;
  h_latency : Telemetry.histogram;
}

let create ?prng ~engine (cfg : config) =
  if cfg.replicas <= 0 then invalid_arg "Service.create: replicas must be positive";
  if cfg.max_attempts < 1 then invalid_arg "Service.create: max_attempts must be >= 1";
  if cfg.shed_watermark < 0.0 || cfg.shed_watermark > 1.0 then
    invalid_arg "Service.create: shed_watermark out of range";
  let telemetry =
    Telemetry.create ~clock:(fun () -> Engine.now engine) ~name:"serve" ()
  in
  {
    engine;
    cfg;
    queue = Bounded_queue.create ~capacity:queue_capacity;
    replicas =
      Array.init cfg.replicas (fun _ ->
          { kv = kv_create kv_entries; busy = false; busy_time = 0.0 });
    prng = (match prng with Some p -> p | None -> Prng.create 0x5E21CEL);
    kv_hits = 0;
    latencies = [];
    fault_rate = 0.0;
    down = false;
    slowdown = (fun () -> 0.0);
    failover = None;
    event_sink = None;
    telemetry;
    c_submitted = Telemetry.counter telemetry "requests.submitted";
    c_dropped = Telemetry.counter telemetry "requests.dropped";
    c_completed = Telemetry.counter telemetry "requests.completed";
    c_kv_hits = Telemetry.counter telemetry "kv.hits";
    c_retried = Telemetry.counter telemetry "requests.retried";
    c_shed = Telemetry.counter telemetry "requests.shed";
    c_failed = Telemetry.counter telemetry "requests.failed";
    c_failed_over = Telemetry.counter telemetry "requests.failed_over";
    g_queue_depth = Telemetry.gauge telemetry "queue.depth";
    h_latency = Telemetry.histogram telemetry "request.latency_s";
  }

let telemetry t = t.telemetry
let set_event_sink t sink = t.event_sink <- Some sink

let emit t ~kind detail =
  match t.event_sink with Some sink -> sink ~kind detail | None -> ()

let set_fault t ~rate =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Service.set_fault: rate out of range";
  t.fault_rate <- rate

let set_down t b = t.down <- b
let is_down t = t.down
let set_slowdown t f = t.slowdown <- f
let set_failover t h = t.failover <- Some h

(* The session is the prefix key: it stands in for hashing a prompt's
   prefix, which the workload generator keeps equal within a session. *)
let service_time t replica (r : request) =
  let hit = kv_lookup replica.kv r.session in
  if hit then begin
    t.kv_hits <- t.kv_hits + 1;
    Telemetry.incr t.c_kv_hits
  end;
  let prefill =
    float_of_int r.prompt_tokens *. t_prefill
    *. (if hit then 1.0 -. kv_saving else 1.0)
  in
  let decode = float_of_int r.output_tokens *. t_decode in
  let mediation =
    t.cfg.overhead_per_request
    +. (t.cfg.overhead_per_token *. float_of_int (r.prompt_tokens + r.output_tokens))
  in
  prefill +. decode +. mediation

let give_up t (request : request) =
  match t.failover with
  | Some h ->
    Telemetry.incr t.c_failed_over;
    Telemetry.instant t.telemetry ~cat:"recovery"
      ~args:[ ("request", string_of_int request.id) ]
      "request.failed_over";
    emit t ~kind:"request.failover" (Printf.sprintf "request=%d" request.id);
    h request
  | None ->
    Telemetry.incr t.c_failed;
    emit t ~kind:"request.failed" (Printf.sprintf "request=%d" request.id)

let rec dispatch t =
  match
    Array.fold_left
      (fun acc rep -> match acc with Some _ -> acc | None -> if rep.busy then None else Some rep)
      None t.replicas
  with
  | None -> ()
  | Some replica -> (
    match Bounded_queue.pop t.queue with
    | None -> ()
    | Some ({ request; arrived; attempts } as p) ->
      Telemetry.set t.g_queue_depth (float_of_int (Bounded_queue.length t.queue));
      replica.busy <- true;
      let dt = service_time t replica request +. t.slowdown () in
      replica.busy_time <- replica.busy_time +. dt;
      let sp =
        Telemetry.span t.telemetry ~cat:"serve"
          ~args:
            [
              ("request", string_of_int request.id);
              ("session", string_of_int request.session);
              ("attempt", string_of_int attempts);
            ]
          "request.service"
      in
      (* The attempt's fate is decided at dispatch: an injected fault or
         a downed deployment wastes the replica time either way. *)
      let failed =
        t.down || (t.fault_rate > 0.0 && Prng.float t.prng 1.0 < t.fault_rate)
      in
      ignore
        (Engine.schedule t.engine ~delay:dt (fun () ->
             replica.busy <- false;
             (if not failed then begin
                Telemetry.incr t.c_completed;
                let latency = Engine.now t.engine -. arrived in
                t.latencies <- latency :: t.latencies;
                Telemetry.observe t.h_latency latency;
                Telemetry.finish sp
              end
              else begin
                Telemetry.finish ~args:[ ("failed", "true") ] sp;
                if attempts < t.cfg.max_attempts then begin
                  Telemetry.incr t.c_retried;
                  emit t ~kind:"request.retry"
                    (Printf.sprintf "request=%d attempt=%d" request.id attempts);
                  let backoff =
                    backoff_base *. (2.0 ** float_of_int (attempts - 1))
                  in
                  ignore
                    (Engine.schedule t.engine ~delay:backoff (fun () ->
                         if Bounded_queue.push t.queue { p with attempts = attempts + 1 }
                         then begin
                           Telemetry.set t.g_queue_depth
                             (float_of_int (Bounded_queue.length t.queue));
                           dispatch t
                         end
                         else give_up t request))
                end
                else give_up t request
              end);
             dispatch t)))

let shed_threshold t =
  int_of_float (ceil (t.cfg.shed_watermark *. float_of_int queue_capacity))

let submit t request =
  Telemetry.incr t.c_submitted;
  if t.cfg.shed_watermark < 1.0 && Bounded_queue.length t.queue >= shed_threshold t
  then begin
    (* Admission shedding: refuse early while the queue still has slack,
       so retries of already-admitted work keep somewhere to land. *)
    Telemetry.incr t.c_shed;
    emit t ~kind:"request.shed" (Printf.sprintf "request=%d" request.id);
    false
  end
  else begin
    let accepted =
      Bounded_queue.push t.queue
        { request; arrived = Engine.now t.engine; attempts = 1 }
    in
    if accepted then begin
      Telemetry.set t.g_queue_depth (float_of_int (Bounded_queue.length t.queue));
      dispatch t
    end
    else Telemetry.incr t.c_dropped;
    accepted
  end

type stats = {
  submitted : int;
  dropped : int;
  completed : int;
  kv_hits : int;
  shed : int;
  latencies : float list;
  goodput : float;
  busy_fraction : float;
}

let stats t ~at =
  let total_busy = Array.fold_left (fun acc r -> acc +. r.busy_time) 0.0 t.replicas in
  let completed = Telemetry.counter_value t.c_completed in
  {
    submitted = Telemetry.counter_value t.c_submitted;
    dropped = Telemetry.counter_value t.c_dropped;
    completed;
    kv_hits = t.kv_hits;
    shed = Telemetry.counter_value t.c_shed;
    latencies = List.rev t.latencies;
    goodput = (if at > 0.0 then float_of_int completed /. at else 0.0);
    busy_fraction =
      (if at > 0.0 then total_busy /. (at *. float_of_int t.cfg.replicas) else 0.0);
  }

let metrics t =
  let base = Telemetry.snapshot t.telemetry in
  let at = Engine.now t.engine in
  let s = stats t ~at in
  Telemetry.snapshot_of ~component:base.Telemetry.component
    (base.Telemetry.values
    @ [
        ("goodput_rps", Telemetry.Gauge s.goodput);
        ("busy_fraction", Telemetry.Gauge s.busy_fraction);
      ])
