module Engine = Guillotine_sim.Engine
module Telemetry = Guillotine_telemetry.Telemetry
module Stats = Guillotine_util.Stats

(* The series one snapshot position feeds, kept while the position shows
   the same metric name and value kind.  [keys] are built once:
   ["component.metric"] for a counter or gauge; its [.count], [.p50],
   [.p90] and [.p99] for a summary.  A handle stays [None] until its
   series' first sample, so a summary's quantile series still appear
   only once it has samples. *)
type slot = {
  metric : string;
  summary : bool;
  keys : string array;
  handles : Timeseries.series option array;
}

type source = {
  snapshot : unit -> Telemetry.snapshot;
  mutable component : string;
  mutable slots : slot array; (* by snapshot position *)
}

type t = {
  engine : Engine.t;
  series : Timeseries.t;
  watchdog : Watchdog.t;
  recorder : Recorder.t;
  telemetry : Telemetry.t;
  c_samples : Telemetry.counter;
  c_raised : Telemetry.counter;
  c_cleared : Telemetry.counter;
  g_series : Telemetry.gauge;
  mutable sources : source list;                       (* call order *)
  mutable started : bool;
}

(* The sampling cadence, in sim-seconds. *)
let period = 0.5

let create ~engine () =
  let telemetry =
    Telemetry.create ~clock:(fun () -> Engine.now engine) ~name:"obs" ()
  in
  {
    engine;
    series = Timeseries.create ();
    watchdog = Watchdog.create ();
    recorder = Recorder.create ~clock:(fun () -> Engine.now engine) ();
    telemetry;
    c_samples = Telemetry.counter telemetry "samples.taken";
    c_raised = Telemetry.counter telemetry "alerts.raised";
    c_cleared = Telemetry.counter telemetry "alerts.cleared";
    g_series = Telemetry.gauge telemetry "series.tracked";
    sources = [];
    started = false;
  }

let series t = t.series
let recorder t = t.recorder
let telemetry t = t.telemetry
(* Sources are added at set-up and walked on every tick, so they are
   stored in call order. *)
let add_source t snapshot =
  t.sources <- t.sources @ [ { snapshot; component = ""; slots = [||] } ]
let add_registry t reg = add_source t (fun () -> Telemetry.snapshot reg)
let add_rule t r = Watchdog.add_rule t.watchdog r

let is_summary = function
  | Telemetry.Summary _ -> true
  | Telemetry.Counter _ | Telemetry.Gauge _ -> false

let new_slot component metric v =
  let key = component ^ "." ^ metric in
  let keys =
    if is_summary v then
      Array.map (fun s -> key ^ s) [| ".count"; ".p50"; ".p90"; ".p99" |]
    else [| key |]
  in
  {
    metric;
    summary = is_summary v;
    keys;
    handles = Array.make (Array.length keys) None;
  }

let put t slot i ~at v =
  match slot.handles.(i) with
  | Some h -> Timeseries.push t.series h ~at v
  | None ->
    Timeseries.record t.series ~name:slot.keys.(i) ~at v;
    slot.handles.(i) <- Timeseries.find t.series slot.keys.(i)

(* A metric registered mid-run lands before its registry's two
   [telemetry.*] self gauges and shifts them, so every position checks
   its name before its handles are trusted. *)
let slot_at src component i metric v =
  if
    i < Array.length src.slots
    && String.equal src.slots.(i).metric metric
    && src.slots.(i).summary = is_summary v
  then src.slots.(i)
  else begin
    let s = new_slot component metric v in
    if i < Array.length src.slots then src.slots.(i) <- s
    else src.slots <- Array.append src.slots [| s |];
    s
  end

let ingest t ~at src =
  let snap = src.snapshot () in
  let component = snap.Telemetry.component in
  if not (String.equal component src.component) then begin
    src.component <- component;
    src.slots <- [||]
  end;
  List.iteri
    (fun i (metric, v) ->
      let slot = slot_at src component i metric v in
      match v with
      | Telemetry.Counter n -> put t slot 0 ~at (float_of_int n)
      | Telemetry.Gauge g -> put t slot 0 ~at g
      | Telemetry.Summary s ->
        put t slot 0 ~at (float_of_int s.Stats.count);
        if s.Stats.count > 0 then begin
          put t slot 1 ~at s.Stats.p50;
          put t slot 2 ~at s.Stats.p90;
          put t slot 3 ~at s.Stats.p99
        end)
    snap.Telemetry.values

let alert_args (a : Watchdog.alert) =
  let r = a.Watchdog.rule in
  [
    ("rule", r.Watchdog.rule_name);
    ("severity", Watchdog.severity_string r.Watchdog.severity);
    ("metric", r.Watchdog.metric);
    ("value", Printf.sprintf "%g" a.Watchdog.value);
  ]

let sample_now t =
  let at = Engine.now t.engine in
  Telemetry.incr t.c_samples;
  List.iter (ingest t ~at) t.sources;
  Telemetry.set t.g_series (float_of_int (Timeseries.count t.series));
  let raised, cleared = Watchdog.evaluate t.watchdog ~now:at t.series in
  List.iter
    (fun a ->
      Telemetry.incr t.c_raised;
      Telemetry.instant t.telemetry ~cat:"alert" ~args:(alert_args a)
        "alert.raised";
      Recorder.record t.recorder ~source:"obs" ~kind:"alert.raised"
        (Printf.sprintf "%s [%s] value=%g" a.Watchdog.rule.Watchdog.rule_name
           (Watchdog.severity_string a.Watchdog.rule.Watchdog.severity)
           a.Watchdog.value))
    raised;
  List.iter
    (fun a ->
      Telemetry.incr t.c_cleared;
      Telemetry.instant t.telemetry ~cat:"alert" ~args:(alert_args a)
        "alert.cleared";
      Recorder.record t.recorder ~source:"obs" ~kind:"alert.cleared"
        a.Watchdog.rule.Watchdog.rule_name)
    cleared

let start t =
  if not t.started then begin
    t.started <- true;
    ignore
      (Engine.every t.engine ~period (fun () ->
           sample_now t;
           true))
  end

let alerts t = Watchdog.alerts t.watchdog

let first_alert t =
  match alerts t with [] -> None | a :: _ -> Some a

let first_alert_after t ~at =
  List.find_opt (fun (a : Watchdog.alert) -> a.Watchdog.raised_at >= at) (alerts t)
