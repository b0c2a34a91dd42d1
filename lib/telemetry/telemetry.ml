module Stats = Guillotine_util.Stats
module Table = Guillotine_util.Table
module Json = Guillotine_util.Json

type counter = { c_name : string; mutable c_value : int }

(* Gauges keep a bounded time series of their [set]s (timestamped off
   the owning registry's clock, shared by ref so late [set_clock] calls
   reach existing gauges) — the counter track the Chrome-trace export
   renders.  The track lives outside the event buffer: recorded/dropped
   accounting is untouched by gauge traffic. *)
type gauge = {
  g_name : string;
  mutable g_value : float;
  g_clock : (unit -> float) ref;
  mutable g_samples : (float * float) list; (* (ts, value), reversed *)
  mutable g_count : int;
}

type histogram = {
  mutable h_samples : float list; (* reversed *)
  mutable h_count : int;
  mutable h_cached_at : int; (* h_count the cached summary was built at *)
  mutable h_cached : Stats.summary;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float;   (* clock seconds *)
  ev_dur : float;  (* 0 for instants *)
  ev_instant : bool;
  ev_args : (string * string) list;
}

type t = {
  reg_name : string;
  clock : (unit -> float) ref;
  metrics : (string, metric) Hashtbl.t;
  mutable order : (string * metric) list; (* reversed registration order *)
  max_events : int;
  mutable events : event list; (* reversed *)
  mutable recorded : int;
  mutable dropped : int;
}

type span = {
  sp_reg : t;
  sp_name : string;
  sp_cat : string;
  sp_start : float;
  sp_args : (string * string) list;
  mutable sp_done : bool;
}

(* No process-global state: registries must be freely creatable from
   any domain without cross-cell coupling (trace tids are positional,
   assigned per export). *)
let create ?(clock = fun () -> 0.0) ?(max_events = 65536) ~name () =
  {
    reg_name = name;
    clock = ref clock;
    metrics = Hashtbl.create 16;
    order = [];
    max_events;
    events = [];
    recorded = 0;
    dropped = 0;
  }

let set_clock t clock = t.clock := clock

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let register t name make wrong =
  match Hashtbl.find_opt t.metrics name with
  | Some m -> (
    match wrong m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Telemetry: %S already registered as another metric kind"
           name))
  | None ->
    let m, v = make () in
    Hashtbl.replace t.metrics name m;
    t.order <- (name, m) :: t.order;
    v

let counter t name =
  register t name
    (fun () ->
      let c = { c_name = name; c_value = 0 } in
      (M_counter c, c))
    (function M_counter c -> Some c | _ -> None)

let incr ?(by = 1) c =
  if by < 0 then
    invalid_arg (Printf.sprintf "Telemetry.incr %s: negative increment" c.c_name);
  c.c_value <- c.c_value + by

let counter_value c = c.c_value

let gauge t name =
  register t name
    (fun () ->
      let g =
        { g_name = name; g_value = 0.0; g_clock = t.clock; g_samples = [];
          g_count = 0 }
      in
      (M_gauge g, g))
    (function M_gauge g -> Some g | _ -> None)

(* Bound per-gauge memory the same way histograms do: keep the most
   recent window, resetting at a fixed count so the kept set depends
   only on the set sequence (deterministic across replays). *)
let gauge_window = 256

let set g v =
  g.g_value <- v;
  g.g_count <- g.g_count + 1;
  let ts = !(g.g_clock) () in
  if g.g_count land (gauge_window - 1) = 0 then g.g_samples <- [ (ts, v) ]
  else g.g_samples <- (ts, v) :: g.g_samples

let histogram t name =
  register t name
    (fun () ->
      let h =
        { h_samples = []; h_count = 0; h_cached_at = -1; h_cached = Stats.summarize [] }
      in
      (M_histogram h, h))
    (function M_histogram h -> Some h | _ -> None)

(* Bound per-histogram memory: keep the most recent window of samples
   (quantiles then describe recent behaviour, which is what operators
   want from a live system anyway). *)
let histogram_window = 16384

let observe h v =
  h.h_count <- h.h_count + 1;
  if h.h_count land (histogram_window - 1) = 0 then
    h.h_samples <- [ v ]
  else h.h_samples <- v :: h.h_samples

(* Summaries are read far more often than histograms change once a
   monitor is sampling registries on a fixed cadence, so memoise on the
   observation count: [h_count] uniquely determines [h_samples] (the
   window reset in [observe] happens at a fixed count), making it a
   sound cache key. *)
let histogram_summary h =
  if h.h_cached_at <> h.h_count then begin
    h.h_cached <- Stats.summarize h.h_samples;
    h.h_cached_at <- h.h_count
  end;
  h.h_cached

(* ------------------------------------------------------------------ *)
(* Trace events                                                        *)
(* ------------------------------------------------------------------ *)

let push_event t ev =
  if t.recorded >= t.max_events then t.dropped <- t.dropped + 1
  else begin
    t.events <- ev :: t.events;
    t.recorded <- t.recorded + 1
  end

let span t ?(cat = "") ?(args = []) name =
  { sp_reg = t; sp_name = name; sp_cat = cat; sp_start = !(t.clock) (); sp_args = args;
    sp_done = false }

let finish ?(args = []) sp =
  if not sp.sp_done then begin
    sp.sp_done <- true;
    let t = sp.sp_reg in
    let stop = !(t.clock) () in
    push_event t
      {
        ev_name = sp.sp_name;
        ev_cat = sp.sp_cat;
        ev_ts = sp.sp_start;
        ev_dur = Float.max 0.0 (stop -. sp.sp_start);
        ev_instant = false;
        ev_args = sp.sp_args @ args;
      }
  end

let with_span t name f =
  let sp = span t name in
  match f () with
  | v ->
    finish sp;
    v
  | exception e ->
    finish ~args:[ ("exception", Printexc.to_string e) ] sp;
    raise e

let instant t ?(cat = "") ?(args = []) name =
  push_event t
    {
      ev_name = name;
      ev_cat = cat;
      ev_ts = !(t.clock) ();
      ev_dur = 0.0;
      ev_instant = true;
      ev_args = args;
    }

let events_recorded t = t.recorded
let events_dropped t = t.dropped

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of float
  | Summary of Stats.summary

type snapshot = { component : string; values : (string * value) list }

(* Self-observability: the event buffer's health as two gauges, so
   watchdog rules can alert on telemetry saturation.  Gauges, not
   counters, so [counter_sum] keeps measuring only subsystem activity.
   The metrics are folded onto them from the reversed registration
   list, which leaves them in registration order. *)
let snapshot t =
  let self =
    [
      ("telemetry.events_dropped", Gauge (float_of_int t.dropped));
      ( "telemetry.buffer_occupancy",
        Gauge (float_of_int t.recorded /. float_of_int (max 1 t.max_events)) );
    ]
  in
  let values =
    List.fold_left
      (fun acc (name, m) ->
        let v =
          match m with
          | M_counter c -> Counter c.c_value
          | M_gauge g -> Gauge g.g_value
          | M_histogram h -> Summary (histogram_summary h)
        in
        (name, v) :: acc)
      self t.order
  in
  { component = t.reg_name; values }

let snapshot_of ~component values = { component; values }

let find s name = List.assoc_opt name s.values

let get_counter s name =
  match find s name with Some (Counter n) -> n | _ -> 0

let counter_sum s =
  List.fold_left
    (fun acc (_, v) -> match v with Counter n -> acc + n | _ -> acc)
    0 s.values

let pp_value ppf = function
  | Counter n -> Format.fprintf ppf "%d" n
  | Gauge g -> Format.fprintf ppf "%g" g
  | Summary s ->
    Format.fprintf ppf "n=%d p50=%.4g p99=%.4g max=%.4g" s.Stats.count s.Stats.p50
      s.Stats.p99 s.Stats.max

let table snapshots =
  let t =
    Table.create ~title:"telemetry"
      ~columns:[ ("component", Table.Left); ("metric", Table.Left); ("value", Table.Right) ]
  in
  List.iter
    (fun s ->
      List.iter
        (fun (name, v) ->
          Table.add_row t [ s.component; name; Format.asprintf "%a" pp_value v ])
        s.values)
    snapshots;
  t

(* ------------------------------------------------------------------ *)
(* Chrome-trace export                                                 *)
(* ------------------------------------------------------------------ *)

let add_args buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
    args;
  Buffer.add_string buf "}"

(* Chrome-trace timestamps are microseconds; our clocks are seconds. *)
let usec s = s *. 1e6

let export_chrome_trace regs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit add =
    if !first then first := false else Buffer.add_string buf ",";
    add ()
  in
  (* Thread ids are positions in [regs], not the registries' global
     creation ids: the export of a fresh same-seed rig must come back
     byte-identical no matter how many registries the process has made
     before (the fault plane's replay contract hinges on this). *)
  let tids = List.mapi (fun i t -> (i, t)) regs in
  (* Thread metadata first (ts 0 keeps the timestamp sequence sorted:
     every clock in the system starts at 0). *)
  List.iter
    (fun (tid, t) ->
      emit (fun () ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"ts\":0,\"args\":{\"name\":\"%s\"}}"
               tid (Json.escape t.reg_name))))
    tids;
  let span_events =
    List.concat_map
      (fun (tid, t) ->
        List.rev t.events |> List.mapi (fun seq ev -> (tid, seq, `Ev ev)))
      tids
  in
  (* Gauge counter tracks ("ph":"C"): every retained gauge sample, in
     registration then chronological order, so Perfetto renders
     occupancy/goodput alongside the spans they explain.  Sequence
     numbers continue after the registry's recorded events, keeping the
     total order below unambiguous. *)
  let counter_events =
    List.concat_map
      (fun (tid, t) ->
        let seq = ref t.recorded in
        List.rev t.order
        |> List.concat_map (fun (_, m) ->
               match m with
               | M_gauge g ->
                 List.rev_map
                   (fun (ts, v) ->
                     Stdlib.incr seq;
                     (tid, !seq, `Gauge (g.g_name, ts, v)))
                   g.g_samples
                 |> List.rev
               | _ -> []))
      tids
  in
  let ts_of = function `Ev ev -> ev.ev_ts | `Gauge (_, ts, _) -> ts in
  (* Explicit total order: timestamp, then thread, then each registry's
     own recording sequence.  Events sharing a timestamp (an alert
     instant landing on the same tick as the span that triggered it)
     therefore serialise identically on every export — same-seed traces
     byte-compare. *)
  let events =
    List.sort
      (fun (atid, aseq, a) (btid, bseq, b) ->
        match Float.compare (ts_of a) (ts_of b) with
        | 0 -> (
          match compare atid btid with 0 -> compare aseq bseq | c -> c)
        | c -> c)
      (span_events @ counter_events)
  in
  List.iter
    (fun (tid, _, item) ->
      emit (fun () ->
          match item with
          | `Ev ev ->
            Buffer.add_string buf
              (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f"
                 (Json.escape ev.ev_name)
                 (Json.escape (if ev.ev_cat = "" then "default" else ev.ev_cat))
                 (if ev.ev_instant then "i" else "X")
                 tid (usec ev.ev_ts));
            if ev.ev_instant then Buffer.add_string buf ",\"s\":\"t\""
            else Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" (usec ev.ev_dur));
            Buffer.add_string buf ",\"args\":";
            add_args buf ev.ev_args;
            Buffer.add_string buf "}"
          | `Gauge (name, ts, v) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "{\"name\":\"%s\",\"cat\":\"gauge\",\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":{\"value\":%.6g}}"
                 (Json.escape name) tid (usec ts) v)))
    events;
  Buffer.add_string buf "]}";
  Buffer.contents buf
