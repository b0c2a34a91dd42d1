(* Observability-plane tests: time-series window algebra, watchdog
   state-machine properties, the console escalation path, and the
   incident-report golden.

   Layering mirrors the library: the qcheck properties hit Timeseries
   and Watchdog in isolation (pure, no sim engine), the console test
   exercises the escalation path end to end, and the scenario tests pin
   the monitored fault scenarios — golden incident text at seed 1,
   replay-equality at whatever seed the CI matrix supplies via
   FAULTS_SEED. *)

module Timeseries = Guillotine_obs.Timeseries
module Watchdog = Guillotine_obs.Watchdog
module Recorder = Guillotine_obs.Recorder
module Scenarios = Guillotine_faults.Scenarios
module Telemetry = Guillotine_telemetry.Telemetry
module Engine = Guillotine_sim.Engine
module Machine = Guillotine_machine.Machine
module Hypervisor = Guillotine_hv.Hypervisor
module Console = Guillotine_physical.Console
module Hsm = Guillotine_hsm.Hsm
module Detector = Guillotine_detect.Detector
module Isolation = Guillotine_hv.Isolation
module Prng = Guillotine_util.Prng
module Deployment = Guillotine_core.Deployment
module Monitor = Guillotine_obs.Monitor
module Stats = Guillotine_util.Stats

let matrix_seed =
  match Sys.getenv_opt "FAULTS_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 1)
  | None -> 1

(* ------------------- window algebra (qcheck) ----------------------- *)

(* Feed a cumulative counter into a series, then close the last window
   by recording the final value once more far in the future.  The
   trailing open window has delta 0, so the closed windows carry the
   whole story. *)
let feed_counter increments =
  let ts = Timeseries.create () in
  let v = ref 0.0 in
  List.iteri
    (fun i inc ->
      v := !v +. inc;
      Timeseries.record ts ~name:"c" ~at:(0.3 *. float_of_int i) !v)
    increments;
  Timeseries.record ts ~name:"c"
    ~at:(0.3 *. float_of_int (List.length increments) +. 100.0)
    !v;
  (Timeseries.points ts "c", !v)

let increments_gen =
  QCheck.(list_of_size Gen.(int_range 1 40) (float_range 0.0 100.0))

let prop_window_deltas_sum_to_counter_delta =
  QCheck.Test.make ~count:200 ~name:"sum of window deltas = counter delta"
    increments_gen (fun incs ->
      QCheck.assume (incs <> []);
      let points, total = feed_counter incs in
      let first = List.hd incs in
      let sum =
        List.fold_left (fun acc p -> acc +. p.Timeseries.delta) 0.0 points
      in
      (* The very first window's delta is measured against its own first
         sample, so the telescoped sum is [last - first]. *)
      Float.abs (sum -. (total -. first)) < 1e-6)

let prop_monotone_counter_rates_non_negative =
  QCheck.Test.make ~count:200 ~name:"monotone counter never rates negative"
    increments_gen (fun incs ->
      QCheck.assume (incs <> []);
      let points, _ = feed_counter incs in
      List.for_all
        (fun p -> p.Timeseries.delta >= 0.0 && p.Timeseries.rate >= 0.0)
        points)

(* --------- ring-buffered store = list reference (qcheck) ----------- *)

(* Every query the library store answers must match the list-based
   reference in [Timeseries_ref] bit for bit, after every record of a
   random trace: a few series, both kinds, times that repeat, step
   across window boundaries exactly and jump several windows, repeated
   and signed-zero values, and a retention bound small enough to be
   hit many times over. *)
let ts_names = [| "a.x"; "b.x"; "a.y"; "c" |]
let ts_queries = Array.to_list ts_names @ [ "absent" ]
let ts_patterns = [ "*.x"; "*.y"; "*."; "*"; "*x"; "a.x"; "c"; "absent"; "" ]

let ts_signals =
  Timeseries.
    [
      (Last, Timeseries_ref.Last); (Mean, Timeseries_ref.Mean);
      (Min, Timeseries_ref.Min); (Max, Timeseries_ref.Max);
      (P50, Timeseries_ref.P50); (P90, Timeseries_ref.P90);
      (P99, Timeseries_ref.P99); (Rate, Timeseries_ref.Rate);
      (Delta, Timeseries_ref.Delta); (Count, Timeseries_ref.Count);
    ]

let bits = Int64.bits_of_float
let opt_bits = Option.map bits

let point_bits (p : Timeseries.point) =
  ( p.Timeseries.samples,
    List.map bits
      Timeseries.
        [ p.window_start; p.window_end; p.last; p.sum; p.min; p.max; p.p50;
          p.p90; p.p99; p.delta; p.rate ] )

let ref_point_bits (p : Timeseries_ref.point) =
  ( p.Timeseries_ref.samples,
    List.map bits
      Timeseries_ref.
        [ p.window_start; p.window_end; p.last; p.sum; p.min; p.max; p.p50;
          p.p90; p.p99; p.delta; p.rate ] )

let ts_trace_arb =
  let record =
    QCheck.Gen.(
      quad (int_bound (Array.length ts_names - 1)) bool
        (frequency
           [
             (2, return 0.0);
             (2, oneofl [ 0.25; 0.5; 1.0 ]);
             (4, float_range 0.05 0.6);
             (1, float_range 1.0 6.0);
           ])
        (frequency
           [
             (4, oneofl [ 0.0; -0.0; 1.0; -1.0; 2.5; Float.nan ]);
             (3, float_range (-50.0) 50.0);
           ]))
  in
  let print (max_windows, records) =
    Printf.sprintf "max_windows=%d [%s]" max_windows
      (String.concat "; "
         (List.map
            (fun (i, counter, dt, v) ->
              Printf.sprintf "%s %s +%h %h" ts_names.(i)
                (if counter then "counter" else "gauge")
                dt v)
            records))
  in
  QCheck.make ~print
    QCheck.Gen.(
      pair (int_range 1 8) (list_size (int_range 0 80) record))

(* Every per-series query, answered by the library store and by the
   reference. *)
let series_agree ts rf ~now name =
  List.map point_bits (Timeseries.points ts name)
  = List.map ref_point_bits (Timeseries_ref.points rf name)
  && List.for_all
       (fun (sg, rsg) ->
         opt_bits (Timeseries.signal_value ts name sg)
         = opt_bits (Timeseries_ref.signal_value rf name rsg))
       ts_signals
  && opt_bits (Timeseries.staleness ts ~name ~now)
     = opt_bits (Timeseries_ref.staleness rf ~name ~now)
  && opt_bits (Timeseries.last_sample_at ts name)
     = opt_bits (Timeseries_ref.last_sample_at rf name)

let prop_store_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"ring-buffered store = list reference, bit for bit" ts_trace_arb
    (fun (max_windows, records) ->
      let ts = Timeseries.create ~max_windows () in
      let rf = Timeseries_ref.create ~max_windows () in
      let at = ref 0.0 in
      let agree name = series_agree ts rf ~now:(!at +. 0.75) name in
      List.for_all
        (fun (i, counter, dt, v) ->
          at := !at +. dt;
          let name = ts_names.(i) in
          Timeseries.record ts ~name ~at:!at v;
          Timeseries_ref.record rf ~name
            ~kind:
              (if counter then Timeseries_ref.Counter else Timeseries_ref.Gauge)
            ~at:!at v;
          Timeseries.names ts = Timeseries_ref.names rf
          && Timeseries.count ts = Timeseries_ref.count rf
          && List.for_all
               (fun p -> Timeseries.matching ts p = Timeseries_ref.matching rf p)
               ts_patterns
          && List.for_all agree ts_queries)
        records)

(* ------- monitor handle caches = string-keyed ingest (qcheck) ------- *)

(* The monitor resolves each snapshot position to its series once, and
   keeps the handles while the position shows the same name and value
   kind.  These sources change shape between ticks in each way that can
   leave such a cache stale: a counter registered mid-run lands before
   its registry's two self gauges and shifts them; a histogram's
   quantile series appear once it has samples; a custom source builds
   fresh name strings every tick, renames one position and now and then
   its component; and one name switches between counter and summary.
   After every tick the monitor's store must answer every query bit for
   bit as a reference store fed by the string-keyed ingest does. *)
let ref_ingest rf ~at (snap : Telemetry.snapshot) =
  let record name kind v = Timeseries_ref.record rf ~name ~kind ~at v in
  List.iter
    (fun (metric, v) ->
      let key = snap.Telemetry.component ^ "." ^ metric in
      match v with
      | Telemetry.Counter n -> record key Timeseries_ref.Counter (float_of_int n)
      | Telemetry.Gauge g -> record key Timeseries_ref.Gauge g
      | Telemetry.Summary s ->
        record (key ^ ".count") Timeseries_ref.Counter
          (float_of_int s.Stats.count);
        if s.Stats.count > 0 then begin
          record (key ^ ".p50") Timeseries_ref.Gauge s.Stats.p50;
          record (key ^ ".p90") Timeseries_ref.Gauge s.Stats.p90;
          record (key ^ ".p99") Timeseries_ref.Gauge s.Stats.p99
        end)
    snap.Telemetry.values

(* One tick: sim-seconds since the last, whether the registry gains a
   counter, a histogram sample, whether "flip" reads as a summary, and
   how far every counter moves. *)
let monitor_trace_arb =
  let step =
    QCheck.Gen.(
      quad
        (oneofl [ 0.25; 0.5; 1.0; 2.5 ])
        (frequency [ (1, return true); (3, return false) ])
        (opt (float_range 0.0 10.0))
        (pair bool (int_bound 3)))
  in
  let print steps =
    String.concat "; "
      (List.map
         (fun (dt, register, observe, (flip, by)) ->
           Printf.sprintf "+%g%s%s%s by %d" dt
             (if register then " register" else "")
             (match observe with
             | Some x -> Printf.sprintf " observe %h" x
             | None -> "")
             (if flip then " flip" else "")
             by)
         steps)
  in
  QCheck.make ~print QCheck.Gen.(list_size (int_range 1 40) step)

let prop_monitor_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"monitor handle caches = string-keyed ingest, bit for bit"
    monitor_trace_arb (fun steps ->
      let e = Engine.create () in
      let m = Monitor.create ~engine:e () in
      let rf = Timeseries_ref.create () in
      let reg = Telemetry.create ~name:"reg" () in
      let counters = ref [ Telemetry.counter reg "c0" ] in
      let lat = Telemetry.histogram reg "lat" in
      let tick = ref 0 and flip = ref false in
      let fresh s = Bytes.to_string (Bytes.of_string s) in
      let custom () =
        Telemetry.snapshot_of
          ~component:(if !tick mod 4 = 0 then "renamed" else fresh "custom")
          [
            (fresh "tick", Telemetry.Counter !tick);
            ( fresh "flip",
              if !flip then
                Telemetry.Summary
                  (Stats.summarize (List.init (!tick mod 3) float_of_int))
              else Telemetry.Counter !tick );
            (Printf.sprintf "gen%d" (!tick mod 3), Telemetry.Gauge 1.0);
          ]
      in
      (* The snapshots the monitor took this tick, in call order. *)
      let taken = ref [] in
      let source f () =
        let snap = f () in
        taken := snap :: !taken;
        snap
      in
      Monitor.add_source m (source (fun () -> Telemetry.snapshot reg));
      Monitor.add_source m (source custom);
      let ts = Monitor.series m in
      List.for_all
        (fun (dt, register, observe, (flip_now, by)) ->
          if register then
            counters :=
              Telemetry.counter reg
                (Printf.sprintf "c%d" (List.length !counters))
              :: !counters;
          List.iter (Telemetry.incr ~by) !counters;
          Option.iter (Telemetry.observe lat) observe;
          flip := flip_now;
          incr tick;
          Engine.run e ~until:(Engine.now e +. dt);
          Monitor.sample_now m;
          let at = Engine.now e in
          List.iter (ref_ingest rf ~at) (List.rev !taken);
          taken := [];
          Timeseries.names ts = Timeseries_ref.names rf
          && Timeseries.count ts = Timeseries_ref.count rf
          && List.for_all
               (series_agree ts rf ~now:(at +. 0.75))
               ("absent" :: Timeseries_ref.names rf))
        steps)

(* ------------------- monitor sampling cost (unit) ------------------ *)

(* A monitor sample must allocate the same at any uptime, and the
   monitor must keep little once its windows are full.  Counting words
   rather than seconds keeps the check independent of host speed.  The
   later span lies past the default 512-window retention bound, where a
   store that rebuilt its retained windows on every close allocated
   seven times as much.  A monitor that summarised each window at its
   close and built every series key on every tick allocated 3 545.5
   words per sample and kept 795 840 words at 1 500 sim-s; resolving
   each series once and keeping windows raw takes that to 961 and
   136 320, and snapshots folded from each registry's (name, metric)
   list take the words to 844. *)
let test_flat_cost_sampling () =
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let d = Deployment.create ~seed:1L () in
  let m = Deployment.enable_monitoring d in
  let e = Deployment.engine d in
  let fresh = live_words () in
  let samples () =
    Telemetry.get_counter (Telemetry.snapshot (Monitor.telemetry m))
      "samples.taken"
  in
  let words_per_sample ~from ~until =
    Engine.run e ~until:from;
    let s0 = samples () in
    let w0 = Gc.minor_words () in
    Engine.run e ~until;
    let w1 = Gc.minor_words () in
    let taken = samples () - s0 in
    Alcotest.(check int) "2 Hz sampling" 500 taken;
    (w1 -. w0) /. float_of_int taken
  in
  let early = words_per_sample ~from:250.0 ~until:500.0 in
  let late = words_per_sample ~from:1250.0 ~until:1500.0 in
  let retained = live_words () - fresh in
  ignore (Sys.opaque_identity d);
  if late > 1.05 *. early then
    Alcotest.failf "words per sample grew with uptime: %.1f -> %.1f" early late;
  if late > 930.0 then
    Alcotest.failf "%.1f words per sample past the retention bound (budget 930)"
      late;
  if retained > 150_000 then
    Alcotest.failf
      "the monitor keeps %d live words at 1500 sim-s (budget 150000)" retained

(* ------------------- watchdog hysteresis (qcheck) ------------------ *)

(* A gauge oscillating strictly inside the hysteresis band around the
   threshold can raise at most one alert: clearing needs a confident
   retreat past [threshold - clear_margin], which the band excludes. *)
let prop_hysteresis_no_flapping =
  let threshold = 10.0 and margin = 2.0 in
  let band_gen =
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (float_range (threshold -. margin +. 0.1) (threshold +. margin)))
  in
  QCheck.Test.make ~count:200 ~name:"hysteresis: in-band oscillation no-flap"
    band_gen (fun values ->
      let ts = Timeseries.create () in
      let wd = Watchdog.create () in
      Watchdog.add_rule wd
        (Watchdog.rule ~name:"flap" ~metric:"g" ~clear_margin:margin
           (Watchdog.Above threshold));
      (* First sample breaches outright so the alert is up, then the
         in-band oscillation follows. *)
      List.iteri
        (fun i v ->
          let at = float_of_int i in
          let v = if i = 0 then threshold +. 1.0 else v in
          Timeseries.record ts ~name:"g" ~at v;
          ignore (Watchdog.evaluate wd ~now:at ts))
        (0.0 :: values);
      List.length (Watchdog.alerts wd) = 1)

(* ------------------ recorder ring eviction (qcheck) ---------------- *)

(* The flight recorder's ring bound evicts oldest-first and never
   reorders: after any emission sequence the survivors are exactly the
   last [min n capacity] events, in insertion order, with contiguous
   sequence numbers ending at [recorded - 1] — and the recorded/dropped
   accounting balances against the retained count.  Sequence lengths
   fall near zero, the shipped 4 096-event depth and twice it. *)
let prop_recorder_ring_insertion_order =
  let capacity = 4096 in
  QCheck.Test.make ~count:60
    ~name:"recorder ring keeps newest events in insertion order"
    QCheck.(
      map
        (fun (k, d) -> max 0 ((k * capacity) + d))
        (pair (int_range 0 2) (int_range (-32) 32)))
    (fun n ->
      let r = Recorder.create ~clock:(fun () -> 0.0) () in
      for i = 0 to n - 1 do
        Recorder.record r ~source:"test" ~kind:"k" (Printf.sprintf "e%d" i)
      done;
      let evs = Recorder.events r in
      let retained = min n capacity in
      let seqs = List.map (fun (e : Recorder.event) -> e.Recorder.seq) evs in
      List.length evs = retained
      && seqs = List.init retained (fun i -> n - retained + i)
      && List.for_all
           (fun (e : Recorder.event) ->
             e.Recorder.detail = Printf.sprintf "e%d" e.Recorder.seq)
           evs
      && Recorder.recorded r = n
      && Recorder.dropped r = n - retained)

(* ----------------------- stale rule (unit) ------------------------- *)

let test_stale_rule () =
  let ts = Timeseries.create () in
  let wd = Watchdog.create () in
  Watchdog.add_rule wd
    (Watchdog.rule ~name:"hb" ~metric:"beats" ~severity:Watchdog.Critical
       (Watchdog.Stale 2.0));
  (* Nothing recorded yet: absence of the series is not staleness. *)
  let raised, _ = Watchdog.evaluate wd ~now:10.0 ts in
  Alcotest.(check int) "unknown series stays silent" 0 (List.length raised);
  (* A beating heartbeat. *)
  for i = 0 to 10 do
    Timeseries.record ts ~name:"beats" ~at:(0.5 *. float_of_int i)
      (float_of_int i)
  done;
  let raised, _ = Watchdog.evaluate wd ~now:6.0 ts in
  Alcotest.(check int) "fresh value healthy" 0 (List.length raised);
  (* The value stops changing at t=5.0; breach after 2 stale seconds. *)
  let raised, _ = Watchdog.evaluate wd ~now:8.0 ts in
  Alcotest.(check int) "staleness past budget raises" 1 (List.length raised);
  match Watchdog.alerts wd with
  | [ a ] ->
    Alcotest.(check (float 1e-9)) "raised at evaluation time" 8.0
      a.Watchdog.raised_at
  | _ -> Alcotest.fail "expected exactly one alert"

(* ---------------- telemetry drops, late registry (unit) ------------- *)

(* A registry attached after the first tick brings a new
   [*.telemetry.events_dropped] series.  The stock telemetry-drops rule
   must see it on the next tick, so its cached match has to follow the
   store's series count. *)
let test_late_registry_drops () =
  let e = Engine.create () in
  let m = Monitor.create ~engine:e () in
  Monitor.add_registry m (Telemetry.create ~name:"early" ());
  Monitor.add_rule m
    (List.find
       (fun r -> r.Watchdog.rule_name = "telemetry-drops")
       Deployment.default_slo_rules);
  Monitor.sample_now m;
  let late = Telemetry.create ~max_events:1 ~name:"late" () in
  Monitor.add_registry m late;
  Telemetry.instant late "kept";
  Telemetry.instant late "dropped";
  Alcotest.(check int) "late registry overflowed" 1
    (Telemetry.events_dropped late);
  Engine.run e ~until:0.5;
  Monitor.sample_now m;
  match Monitor.alerts m with
  | [ a ] ->
    Alcotest.(check string) "rule" "telemetry-drops"
      a.Watchdog.rule.Watchdog.rule_name;
    Alcotest.(check (float 0.0)) "raised on the next tick" 0.5
      a.Watchdog.raised_at
  | alerts -> Alcotest.failf "expected one alert, got %d" (List.length alerts)

(* ------------------ console escalation path (unit) ----------------- *)

let test_console_watchdog_alert () =
  let e = Engine.create () in
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let hsm = Hsm.create ~key_height:4 (Prng.create 77L) in
  let console = Console.create ~engine:e ~hv ~hsm () in
  (* A recovery sweep whose check always fails but always recovers: the
     out-of-cycle pass triggered by the alert must run it immediately,
     not at the next period. *)
  ignore
    (Console.start_recovery_sweep console ~period:1000.0
       ~check:(fun () -> Error "wedged")
       ~recover:(fun ~reason:_ -> Ok "rolled back"));
  Console.on_watchdog_alert console ~severity:Detector.Suspicious
    ~reason:"latency SLO breach";
  Engine.run ~until:50.0 e;
  let snap = Console.metrics console in
  Alcotest.(check int) "watchdog.alerts bumped" 1
    (Telemetry.get_counter snap "watchdog.alerts");
  Alcotest.(check bool) "out-of-cycle sweep recovered" true
    (Telemetry.get_counter snap "recoveries.completed" >= 1);
  (* Suspicious routes through the stock alarm policy: Probation. *)
  Alcotest.(check string) "alarm policy applied" "probation"
    (Isolation.to_string (Console.level console))

(* ------------------- monitored scenarios (pinning) ----------------- *)

let test_detection_finite name () =
  let m = Scenarios.run_monitored name ~seed:1 in
  match m.Scenarios.detection_latency_s with
  | Some l ->
    Alcotest.(check bool) "latency non-negative" true (l >= 0.0)
  | None -> Alcotest.fail "fault went undetected at seed 1"

let test_monitored_replay name () =
  let a = Scenarios.run_monitored name ~seed:matrix_seed in
  let b = Scenarios.run_monitored name ~seed:matrix_seed in
  Alcotest.(check (option string)) "incident json replays"
    a.Scenarios.incident_json b.Scenarios.incident_json;
  Alcotest.(check string) "trace replays" a.Scenarios.base.Scenarios.trace
    b.Scenarios.base.Scenarios.trace;
  Alcotest.(check bool) "alerts replay" true
    (a.Scenarios.alerts = b.Scenarios.alerts)

let golden_incident_text =
  String.concat "\n"
    [
      "INCIDENT heartbeat-outage (seed 1)";
      "alert            heartbeat-loss [critical]";
      "about            a heartbeat timed out";
      "metric           console.heartbeat.losses";
      "raised at        8.000s (value 1)";
      "cleared at       9.000s";
      "first fault at   5.000s";
      "detection        3.000s after injection";
      "faults injected:";
      "  t=5.000s heartbeat outage (console) for 12s";
      "flight recorder (12 events around the alert):";
      "  t=5.000s #0 [faults] fault.injected heartbeat outage (console) for 12s";
      "  t=8.000s #1 [console] force.offline heartbeat loss";
      "  t=8.000s #2 [switches] kill_switch.initiated power_cut";
      "  t=8.000s #3 [switches] kill_switch.initiated disconnect";
      "  t=8.000s #4 [obs] alert.raised heartbeat-loss [critical] value=1";
      "  t=8.500s #5 [switches] kill_switch.actuated disconnect";
      "  t=9.000s #6 [obs] alert.cleared heartbeat-loss";
      "  t=10.000s #7 [switches] kill_switch.actuated power_cut";
      "  t=10.000s #8 [hv] isolation.applied from=standard to=offline \
       authorized_by=fail-safe";
      "  t=10.000s #9 [console] isolation.transition target=offline \
       authorized_by=fail-safe took=2.000s";
      "  t=10.000s #10 [obs] alert.raised isolation-transition [warning] value=1";
      "  t=11.000s #11 [obs] alert.cleared isolation-transition";
      (* incident_text ends with a newline *)
      "";
    ]

let test_golden_incident_report () =
  if matrix_seed <> 1 then ()
  else
    let m = Scenarios.run_monitored "heartbeat-outage" ~seed:1 in
    match m.Scenarios.incident_text with
    | Some text ->
      Alcotest.(check string) "incident text pinned" golden_incident_text text
    | None -> Alcotest.fail "no incident report at seed 1"

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "timeseries",
        [
          qc prop_window_deltas_sum_to_counter_delta;
          qc prop_monotone_counter_rates_non_negative;
          qc prop_store_matches_reference;
          qc prop_monitor_matches_reference;
          Alcotest.test_case "flat-cost sampling" `Quick test_flat_cost_sampling;
        ] );
      ( "watchdog",
        [
          qc prop_hysteresis_no_flapping;
          Alcotest.test_case "stale rule" `Quick test_stale_rule;
          Alcotest.test_case "late registry drops" `Quick
            test_late_registry_drops;
        ] );
      ("recorder", [ qc prop_recorder_ring_insertion_order ]);
      ( "console",
        [
          Alcotest.test_case "watchdog alert escalation" `Quick
            test_console_watchdog_alert;
        ] );
      ( "scenarios",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ " detected") `Quick
              (test_detection_finite name))
          Scenarios.names
        @ List.map
            (fun name ->
              Alcotest.test_case
                (Printf.sprintf "%s replay(seed=%d)" name matrix_seed)
                `Quick (test_monitored_replay name))
            Scenarios.names
        @ [
            Alcotest.test_case "golden incident report" `Quick
              test_golden_incident_report;
          ] );
    ]
