module Stats = Guillotine_util.Stats

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

(* All three buffers grow by doubling and are reused, so a record or a
   window close costs the same at any uptime.  A closed window is kept
   raw, as [n + 1] floats: its [n] samples in arrival order, then the
   previous window's last sample, the base of its delta.  The ring
   fills from slot 0 until it holds [max_windows] windows; only then
   does [head] move, each close overwriting the oldest window. *)
type series = {
  mutable open_idx : int;
  mutable open_buf : float array;  (* open window's samples, arrival order *)
  mutable n_open : int;
  mutable closed : float array array; (* closed windows, oldest at [head] *)
  mutable closed_idx : int array;     (* their window indices *)
  mutable head : int;
  mutable n_closed : int;
  mutable prev_last : float;       (* last sample before the open window,
                                      or the series' first sample *)
  mutable last_value : float;
  mutable last_at : float;
  mutable changed_at : float;
}

(* Window size in sim-seconds. *)
let width = 1.0

type t = {
  max_windows : int;
  tbl : (string, series) Hashtbl.t;
  mutable order : string list; (* reversed first-seen order *)
}

let create ?(max_windows = 512) () =
  if max_windows < 1 then invalid_arg "Timeseries.create: max_windows must be >= 1";
  { max_windows; tbl = Hashtbl.create 64; order = [] }

(* Aggregates go through Stats.summarize_array — the summariser
   telemetry snapshots use — so windowed and snapshot percentiles agree
   by construction. *)
let open_summary s = Stats.summarize_array ~len:s.n_open s.open_buf

let push_closed t s w =
  let cap = Array.length s.closed in
  if s.n_closed = t.max_windows then begin
    s.closed.(s.head) <- w;
    s.closed_idx.(s.head) <- s.open_idx;
    s.head <- (s.head + 1) mod cap
  end
  else begin
    if s.n_closed = cap then begin
      let cap' = min t.max_windows (max 1 (2 * cap)) in
      let closed = Array.make cap' w and closed_idx = Array.make cap' 0 in
      Array.blit s.closed 0 closed 0 cap;
      Array.blit s.closed_idx 0 closed_idx 0 cap;
      s.closed <- closed;
      s.closed_idx <- closed_idx
    end;
    s.closed.(s.n_closed) <- w;
    s.closed_idx.(s.n_closed) <- s.open_idx;
    s.n_closed <- s.n_closed + 1
  end

(* A close copies the samples and summarises nothing: [points] does
   that when it is read. *)
let close_window t s =
  let n = s.n_open in
  if n > 0 then begin
    let w = Array.make (n + 1) s.prev_last in
    Array.blit s.open_buf 0 w 0 n;
    push_closed t s w;
    s.prev_last <- s.open_buf.(n - 1);
    s.n_open <- 0
  end

let new_series t ~name ~at v =
  let s =
    {
      open_idx = -1;
      open_buf = [||];
      n_open = 0;
      closed = [||];
      closed_idx = [||];
      head = 0;
      n_closed = 0;
      prev_last = v;
      last_value = v;
      last_at = at;
      changed_at = at;
    }
  in
  Hashtbl.replace t.tbl name s;
  t.order <- name :: t.order;
  s

let find t name = Hashtbl.find_opt t.tbl name

let push t s ~at v =
  let idx = int_of_float (Float.floor (at /. width)) in
  if s.open_idx <> idx then begin
    close_window t s;
    s.open_idx <- idx
  end;
  if s.last_value <> v then s.changed_at <- at;
  if s.n_open = Array.length s.open_buf then begin
    let buf = Array.make (max 4 (2 * s.n_open)) 0.0 in
    Array.blit s.open_buf 0 buf 0 s.n_open;
    s.open_buf <- buf
  end;
  s.open_buf.(s.n_open) <- v;
  s.n_open <- s.n_open + 1;
  s.last_value <- v;
  s.last_at <- at

let record t ~name ~at v =
  let s =
    match Hashtbl.find t.tbl name with
    | s -> s
    | exception Not_found -> new_series t ~name ~at v
  in
  push t s ~at v

let names t = List.rev t.order
let count t = Hashtbl.length t.tbl

let matching t pattern =
  if String.starts_with ~prefix:"*." pattern then begin
    let suffix = String.sub pattern 1 (String.length pattern - 1) in
    (* Folding the reversed order and consing restores first-seen order. *)
    List.fold_left
      (fun acc n -> if String.ends_with ~suffix n then n :: acc else acc)
      [] t.order
  end
  else if Hashtbl.mem t.tbl pattern then [ pattern ]
  else []

let window_point ~idx w =
  let n = Array.length w - 1 in
  let su = Stats.summarize_array ~len:n w in
  let last = w.(n - 1) in
  let delta = last -. w.(n) in
  {
    window_start = width *. float_of_int idx;
    window_end = width *. float_of_int (idx + 1);
    samples = su.Stats.count;
    last;
    sum = su.Stats.total;
    min = su.Stats.min;
    max = su.Stats.max;
    p50 = su.Stats.p50;
    p90 = su.Stats.p90;
    p99 = su.Stats.p99;
    delta;
    rate = delta /. width;
  }

let points t name =
  match find t name with
  | None -> []
  | Some s ->
    List.init s.n_closed (fun i ->
        let j = (s.head + i) mod Array.length s.closed in
        window_point ~idx:s.closed_idx.(j) s.closed.(j))

type signal = Last | Mean | Min | Max | P50 | P90 | P99 | Rate | Delta | Count

(* The freshest window is always the open one: a series exists only
   once it has a sample, and every close is followed by the sample that
   opened the next window.  Only the mean and the order statistics need
   a summary. *)
let read s signal =
  let last = s.open_buf.(s.n_open - 1) in
  match signal with
  | Last -> last
  | Delta -> last -. s.prev_last
  | Rate -> (last -. s.prev_last) /. width
  | Count -> float_of_int s.n_open
  | Mean -> (open_summary s).Stats.mean
  | Min -> (open_summary s).Stats.min
  | Max -> (open_summary s).Stats.max
  | P50 -> (open_summary s).Stats.p50
  | P90 -> (open_summary s).Stats.p90
  | P99 -> (open_summary s).Stats.p99

let signal_value t name signal = Option.map (fun s -> read s signal) (find t name)
let stale_for s ~now = now -. s.changed_at
let staleness t ~name ~now = Option.map (stale_for ~now) (find t name)
let last_sample_at t name = Option.map (fun s -> s.last_at) (find t name)
