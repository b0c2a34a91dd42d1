type summary = {
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

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if q <= 0. then sorted.(0)
  else if q >= 1. then sorted.(n - 1)
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
    end
  end

(* The sums run over [a] in index order, which is arrival order for
   every caller, so [total], [mean] and [stddev] have the same bits
   whether the samples sit in a list or a buffer; the order statistics
   read a sorted copy. *)
let summarize_array ?len a =
  let n = match len with None -> Array.length a | Some n -> n in
  if n = 0 then empty_summary
  else begin
    let sorted = Array.sub a 0 n in
    (* Float.compare agrees with polymorphic compare on floats (including
       NaN ordering) but avoids the generic-compare path — summaries are
       recomputed on every telemetry snapshot, so this sort is hot. *)
    Array.sort Float.compare sorted;
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. a.(i)
    done;
    let mean = !total /. float_of_int n in
    let stddev =
      if n < 2 then 0.
      else begin
        let ss = ref 0. in
        for i = 0 to n - 1 do
          ss := !ss +. ((a.(i) -. mean) ** 2.)
        done;
        sqrt (!ss /. (float_of_int n -. 1.))
      end
    in
    {
      count = n;
      mean;
      stddev;
      min = sorted.(0);
      p50 = percentile sorted 0.5;
      p90 = percentile sorted 0.9;
      p99 = percentile sorted 0.99;
      max = sorted.(n - 1);
      total = !total;
    }
  end

let summarize xs = summarize_array (Array.of_list xs)

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  match xs with
  | [] -> [||]
  | _ ->
    let lo = List.fold_left min infinity xs in
    let hi = List.fold_left max neg_infinity xs in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
    let counts = Array.make bins 0 in
    let place x =
      let i = int_of_float ((x -. lo) /. width) in
      let i = if i >= bins then bins - 1 else if i < 0 then 0 else i in
      counts.(i) <- counts.(i) + 1
    in
    List.iter place xs;
    Array.mapi
      (fun i c ->
        let blo = lo +. (float_of_int i *. width) in
        (blo, blo +. width, c))
      counts

type counter = {
  mutable n : int;
  mutable m : float;   (* running mean *)
  mutable s : float;   (* sum of squared deviations *)
}

let counter () = { n = 0; m = 0.; s = 0. }

let add c x =
  c.n <- c.n + 1;
  let delta = x -. c.m in
  c.m <- c.m +. (delta /. float_of_int c.n);
  c.s <- c.s +. (delta *. (x -. c.m))

let counter_count c = c.n
let counter_mean c = c.m

let counter_stddev c =
  if c.n < 2 then 0. else sqrt (c.s /. float_of_int (c.n - 1))
