(* Reference metrics registry, for tests only: the snapshot as the
   library built it before it kept a (name, metric) list, which looked
   each name of the reversed registration list up in the table and
   appended the two self gauges with [@].  The library's [snapshot] must
   equal this one's after any sequence of registrations, updates and
   events.  The two share only [Stats.summarize] and the snapshot
   type. *)

module Stats = Guillotine_util.Stats
module Telemetry = Guillotine_telemetry.Telemetry

type metric =
  | M_counter of int ref
  | M_gauge of float ref
  | M_histogram of (float list * int) ref (* reversed samples, count *)

type t = {
  reg_name : string;
  metrics : (string, metric) Hashtbl.t;
  mutable order : string list; (* reversed registration order *)
  max_events : int;
  mutable recorded : int;
  mutable dropped : int;
}

let create ~max_events ~name () =
  { reg_name = name; metrics = Hashtbl.create 16; order = []; max_events;
    recorded = 0; dropped = 0 }

(* Find-or-create, raising as the library does on a kind clash. *)
let register t name make same_kind =
  match Hashtbl.find_opt t.metrics name with
  | Some m ->
    if same_kind m then m
    else
      invalid_arg
        (Printf.sprintf "Telemetry: %S already registered as another metric kind" name)
  | None ->
    let m = make () in
    Hashtbl.replace t.metrics name m;
    t.order <- name :: t.order;
    m

let counter t name =
  register t name
    (fun () -> M_counter (ref 0))
    (function M_counter _ -> true | _ -> false)

let gauge t name =
  register t name (fun () -> M_gauge (ref 0.0)) (function M_gauge _ -> true | _ -> false)

let histogram t name =
  register t name
    (fun () -> M_histogram (ref ([], 0)))
    (function M_histogram _ -> true | _ -> false)

let incr ~by m = match m with M_counter c -> c := !c + by | _ -> assert false
let set m v = match m with M_gauge g -> g := v | _ -> assert false

(* The library keeps a window of 16 384 samples, restarted at every
   multiple of the window. *)
let observe m v =
  match m with
  | M_histogram h ->
    let samples, n = !h in
    let n = n + 1 in
    h := ((if n land 16383 = 0 then [ v ] else v :: samples), n)
  | _ -> assert false

let instant t =
  if t.recorded >= t.max_events then t.dropped <- t.dropped + 1
  else t.recorded <- t.recorded + 1

let snapshot t =
  let values =
    List.rev_map
      (fun name ->
        match Hashtbl.find t.metrics name with
        | M_counter c -> (name, Telemetry.Counter !c)
        | M_gauge g -> (name, Telemetry.Gauge !g)
        | M_histogram h -> (name, Telemetry.Summary (Stats.summarize (fst !h))))
      t.order
  in
  let self =
    [
      ("telemetry.events_dropped", Telemetry.Gauge (float_of_int t.dropped));
      ( "telemetry.buffer_occupancy",
        Telemetry.Gauge (float_of_int t.recorded /. float_of_int (max 1 t.max_events)) );
    ]
  in
  Telemetry.snapshot_of ~component:t.reg_name (values @ self)
