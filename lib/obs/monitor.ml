module Engine = Guillotine_sim.Engine
module Telemetry = Guillotine_telemetry.Telemetry
module Stats = Guillotine_util.Stats

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
  mutable sources : (unit -> Telemetry.snapshot) list; (* call order *)
  mutable handlers : (Watchdog.alert -> unit) list;    (* call order *)
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
    handlers = [];
    started = false;
  }

let series t = t.series
let watchdog t = t.watchdog
let recorder t = t.recorder
let telemetry t = t.telemetry
(* Sources and handlers are added at set-up and walked on every tick,
   so they are stored in call order. *)
let add_source t src = t.sources <- t.sources @ [ src ]
let add_registry t reg = add_source t (fun () -> Telemetry.snapshot reg)
let add_rule t r = Watchdog.add_rule t.watchdog r
let on_alert t h = t.handlers <- t.handlers @ [ h ]

let ingest t ~at (snap : Telemetry.snapshot) =
  let component = snap.Telemetry.component in
  List.iter
    (fun (metric, v) ->
      let key = component ^ "." ^ metric in
      match v with
      | Telemetry.Counter n ->
        Timeseries.record t.series ~name:key ~kind:Timeseries.Counter ~at
          (float_of_int n)
      | Telemetry.Gauge g ->
        Timeseries.record t.series ~name:key ~kind:Timeseries.Gauge ~at g
      | Telemetry.Summary s ->
        Timeseries.record t.series ~name:(key ^ ".count")
          ~kind:Timeseries.Counter ~at
          (float_of_int s.Stats.count);
        if s.Stats.count > 0 then begin
          Timeseries.record t.series ~name:(key ^ ".p50") ~kind:Timeseries.Gauge
            ~at s.Stats.p50;
          Timeseries.record t.series ~name:(key ^ ".p90") ~kind:Timeseries.Gauge
            ~at s.Stats.p90;
          Timeseries.record t.series ~name:(key ^ ".p99") ~kind:Timeseries.Gauge
            ~at s.Stats.p99
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
  List.iter (fun src -> ingest t ~at (src ())) t.sources;
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
           a.Watchdog.value);
      List.iter (fun h -> h a) t.handlers)
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

let detection_latency t ~since =
  Option.map
    (fun (a : Watchdog.alert) -> a.Watchdog.raised_at -. since)
    (first_alert_after t ~at:since)
