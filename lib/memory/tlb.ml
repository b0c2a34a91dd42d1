type entry = { mutable vpage : int; mutable stamp : int }

type t = {
  entries : entry array;
  walk_cost : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let hit_cost = 1

let create ?(entries = 64) ?(walk_cost = 20) () =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  {
    entries = Array.init entries (fun _ -> { vpage = -1; stamp = 0 });
    walk_cost;
    clock = 0;
    hits = 0;
    misses = 0;
  }

(* First matching index, or -1.  Top-level recursion (not a local [go]
   closure, which the non-flambda compiler would heap-allocate per call)
   so the per-fetch lookup allocates nothing. *)
let rec find_from entries n vpage i =
  if i >= n then -1
  else if (Array.unsafe_get entries i).vpage = vpage then i
  else find_from entries n vpage (i + 1)

let find t vpage = find_from t.entries (Array.length t.entries) vpage 0
let slot_of t ~vpage = find t vpage

let lookup t ~vpage =
  t.clock <- t.clock + 1;
  let i = find t vpage in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    (Array.unsafe_get t.entries i).stamp <- t.clock;
    hit_cost
  end
  else begin
    t.misses <- t.misses + 1;
    (* Victim: LRU (first minimum stamp), but prefer an invalid entry
       over evicting a valid one — same policy, loop form. *)
    let victim = ref 0 in
    for i = 0 to Array.length t.entries - 1 do
      if t.entries.(i).stamp < t.entries.(!victim).stamp then victim := i
    done;
    for i = 0 to Array.length t.entries - 1 do
      if t.entries.(i).vpage = -1 && t.entries.(!victim).vpage <> -1 then victim := i
    done;
    t.entries.(!victim).vpage <- vpage;
    t.entries.(!victim).stamp <- t.clock;
    hit_cost + t.walk_cost
  end

let present t ~vpage = find t vpage >= 0

let invalidate t ~vpage =
  Array.iter
    (fun e ->
      if e.vpage = vpage then begin
        e.vpage <- -1;
        e.stamp <- 0
      end)
    t.entries

let flush t =
  Array.iter
    (fun e ->
      e.vpage <- -1;
      e.stamp <- 0)
    t.entries

let stats t = (t.hits, t.misses)
