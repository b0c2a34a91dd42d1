type t = {
  counters : int array; (* 0..3; >=2 predicts taken *)
  mispredict_penalty : int;
}

let create ?(entries = 1024) ?(mispredict_penalty = 12) () =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Bpred.create: entries must be a positive power of two";
  { counters = Array.make entries 1; mispredict_penalty }

let index t pc = pc land (Array.length t.counters - 1)

let predict_and_update t ~pc ~taken =
  let i = index t pc in
  let predicted = t.counters.(i) >= 2 in
  let cost = if predicted = taken then 1 else 1 + t.mispredict_penalty in
  let c = t.counters.(i) in
  t.counters.(i) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
  cost

let reset t = Array.fill t.counters 0 (Array.length t.counters) 1
