(* Reference time-series store, for tests only: the list-based windows
   (reversed sample lists, a closed-window list trimmed with
   [List.filteri] at the bound) and the list-based [summarize] they
   used.  The library's ring-buffered store must answer every query
   bit for bit as this one does.  The two share nothing but
   [Stats.percentile]. *)

module Stats = struct
  type summary = Guillotine_util.Stats.summary = {
    count : int;
    mean : float;
    stddev : float;
    min : float;
    p50 : float;
    p90 : float;
    p99 : float;
    max : float;
    total : float;
  }

  let percentile = Guillotine_util.Stats.percentile

  let empty_summary =
    { count = 0; mean = 0.; stddev = 0.; min = 0.; p50 = 0.; p90 = 0.;
      p99 = 0.; max = 0.; total = 0. }

  let mean xs =
    match xs with
    | [] -> 0.
    | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

  let stddev xs =
    match xs with
    | [] | [ _ ] -> 0.
    | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
      sqrt (ss /. (n -. 1.))

  let summarize xs =
    match xs with
    | [] -> empty_summary
    | _ ->
      let arr = Array.of_list xs in
      Array.sort Float.compare arr;
      let n = Array.length arr in
      {
        count = n;
        mean = mean xs;
        stddev = stddev xs;
        min = arr.(0);
        p50 = percentile arr 0.5;
        p90 = percentile arr 0.9;
        p99 = percentile arr 0.99;
        max = arr.(n - 1);
        total = List.fold_left ( +. ) 0. xs;
      }
end

type kind = Counter | Gauge

type point = {
  window_start : float;
  window_end : float;
  samples : int;
  last : float;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  delta : float;
  rate : float;
}

type series = {
  s_kind : kind;
  mutable open_idx : int;
  mutable open_samples : float list; (* reversed *)
  mutable closed : point list;       (* reversed, bounded *)
  mutable n_closed : int;
  mutable prev_last : float option;  (* last value before the open window *)
  mutable last_value : float option;
  mutable last_at : float;
  mutable changed_at : float;
}

type t = {
  width : float;
  max_windows : int;
  tbl : (string, series) Hashtbl.t;
  mutable order : string list; (* reversed first-seen order *)
}

let create ?(width = 1.0) ?(max_windows = 512) () =
  if width <= 0.0 then invalid_arg "Timeseries.create: width must be positive";
  if max_windows < 1 then invalid_arg "Timeseries.create: max_windows must be >= 1";
  { width; max_windows; tbl = Hashtbl.create 64; order = [] }

let width t = t.width

let series_of t ~name ~kind ~at =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> s
  | None ->
    let s =
      {
        s_kind = kind;
        open_idx = -1;
        open_samples = [];
        closed = [];
        n_closed = 0;
        prev_last = None;
        last_value = None;
        last_at = at;
        changed_at = at;
      }
    in
    Hashtbl.replace t.tbl name s;
    t.order <- name :: t.order;
    s

(* Close the open window into a point.  Aggregates go through
   Stats.summarize — the same path telemetry snapshots use — so
   windowed and snapshot percentiles agree by construction. *)
let close_window t s =
  match s.open_samples with
  | [] -> ()
  | rev_samples ->
    let samples = List.rev rev_samples in
    let su = Stats.summarize samples in
    let last = List.hd rev_samples in
    let prev = match s.prev_last with Some p -> p | None -> List.hd samples in
    let delta = last -. prev in
    let p =
      {
        window_start = t.width *. float_of_int s.open_idx;
        window_end = t.width *. float_of_int (s.open_idx + 1);
        samples = su.Stats.count;
        last;
        sum = su.Stats.total;
        min = su.Stats.min;
        max = su.Stats.max;
        p50 = su.Stats.p50;
        p90 = su.Stats.p90;
        p99 = su.Stats.p99;
        delta;
        rate = delta /. t.width;
      }
    in
    s.closed <- p :: s.closed;
    s.n_closed <- s.n_closed + 1;
    if s.n_closed > t.max_windows then begin
      (* Drop the oldest retained window; rebuilds the list, but only
         once the bound is hit and the list length stays fixed after. *)
      s.closed <- List.filteri (fun i _ -> i < t.max_windows) s.closed;
      s.n_closed <- t.max_windows
    end;
    s.prev_last <- Some last;
    s.open_samples <- []

let record t ~name ~kind ~at v =
  let s = series_of t ~name ~kind ~at in
  let idx = int_of_float (Float.floor (at /. t.width)) in
  if s.open_idx <> idx then begin
    close_window t s;
    s.open_idx <- idx
  end;
  (match s.last_value with
  | Some lv when lv = v -> ()
  | _ -> s.changed_at <- at);
  s.open_samples <- v :: s.open_samples;
  s.last_value <- Some v;
  s.last_at <- at

let names t = List.rev t.order
let count t = Hashtbl.length t.tbl

let matching t pattern =
  let plen = String.length pattern in
  if plen > 1 && String.length pattern >= 2 && String.sub pattern 0 2 = "*." then begin
    let suffix = String.sub pattern 1 (plen - 1) in
    let slen = String.length suffix in
    List.filter
      (fun n ->
        let nlen = String.length n in
        nlen >= slen && String.sub n (nlen - slen) slen = suffix)
      (names t)
  end
  else if Hashtbl.mem t.tbl pattern then [ pattern ]
  else []

let points t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> []
  | Some s -> List.rev s.closed

type signal = Last | Mean | Min | Max | P50 | P90 | P99 | Rate | Delta | Count

(* The freshest window: aggregate the open window on demand when it has
   samples, otherwise fall back to the last closed point. *)
let current_point t s =
  match s.open_samples with
  | [] -> (match s.closed with [] -> None | p :: _ -> Some p)
  | rev_samples ->
    let samples = List.rev rev_samples in
    let su = Stats.summarize samples in
    let last = List.hd rev_samples in
    let prev = match s.prev_last with Some p -> p | None -> List.hd samples in
    let delta = last -. prev in
    Some
      {
        window_start = t.width *. float_of_int s.open_idx;
        window_end = t.width *. float_of_int (s.open_idx + 1);
        samples = su.Stats.count;
        last;
        sum = su.Stats.total;
        min = su.Stats.min;
        max = su.Stats.max;
        p50 = su.Stats.p50;
        p90 = su.Stats.p90;
        p99 = su.Stats.p99;
        delta;
        rate = delta /. t.width;
      }

let signal_value t name signal =
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some s -> (
    match current_point t s with
    | None -> None
    | Some p ->
      Some
        (match signal with
        | Last -> p.last
        | Mean -> if p.samples = 0 then 0.0 else p.sum /. float_of_int p.samples
        | Min -> p.min
        | Max -> p.max
        | P50 -> p.p50
        | P90 -> p.p90
        | P99 -> p.p99
        | Rate -> p.rate
        | Delta -> p.delta
        | Count -> float_of_int p.samples))

let staleness t ~name ~now =
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some s -> if s.last_value = None then None else Some (now -. s.changed_at)

let last_sample_at t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some s -> if s.last_value = None then None else Some s.last_at
