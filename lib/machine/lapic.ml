type request = { line : int; src_core : int }

type t = {
  rate_limit : int;
  queue : request Guillotine_util.Bounded_queue.t;
  mutable window_start : int;
  mutable window_count : int;
  mutable accepted : int;
  mutable dropped : int;
}

(* Pending requests held before [raise_line] drops. *)
let queue_depth = 256

(* Ticks per throttle window. *)
let window = 10_000

let create ~rate_limit =
  {
    rate_limit;
    queue = Guillotine_util.Bounded_queue.create ~capacity:queue_depth;
    window_start = 0;
    window_count = 0;
    accepted = 0;
    dropped = 0;
  }

let raise_line t ~now ~line ~src_core =
  (* Roll the window forward. *)
  if now - t.window_start >= window then begin
    t.window_start <- now;
    t.window_count <- 0
  end;
  let throttled = t.rate_limit > 0 && t.window_count >= t.rate_limit in
  if throttled then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    t.window_count <- t.window_count + 1;
    if Guillotine_util.Bounded_queue.push t.queue { line; src_core }
    then begin
      t.accepted <- t.accepted + 1;
      true
    end
    else begin
      t.dropped <- t.dropped + 1;
      false
    end
  end

let drop_pending t =
  let n = Guillotine_util.Bounded_queue.length t.queue in
  for _ = 1 to n do
    ignore (Guillotine_util.Bounded_queue.pop t.queue)
  done;
  t.dropped <- t.dropped + n;
  n

let pop t = Guillotine_util.Bounded_queue.pop t.queue
let pending t = Guillotine_util.Bounded_queue.length t.queue
let stats t = (t.accepted, t.dropped)
