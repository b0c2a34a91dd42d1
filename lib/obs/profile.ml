(* Cycle-attribution profiles: the rendering/aggregation layer over the
   raw per-core accumulators `Guillotine_microarch.Core` maintains.

   This module is pure data — it never touches a core or a machine, so
   it can live in the obs layer and be consumed by the deployment,
   fleet, CLI, and bench layers alike.  A profile is a bag of per-guest
   records, each carrying the guest's basic-block leader table and the
   flat (block, cost-class) cycle/retire accumulators copied out of the
   core.  Everything derived from it (hot-block ranking, folded
   flamegraph text, telemetry snapshot, JSON) is deterministic: ties
   break on (guest label, block id), never on hash or insertion
   order. *)

module Cost_class = Guillotine_util.Cost_class
module Json = Guillotine_util.Json
module Telemetry = Guillotine_telemetry.Telemetry

let n_classes = Cost_class.count

type guest = {
  core : int;
  label : string;
  leaders : int array;  (* leaders.(b) = block b's leader paddr *)
  cycles : int array;  (* (nblocks+1) * n_classes, row-major; last
                          row is the pseudo-block for unmapped pcs *)
  retired : int array;  (* nblocks+1 *)
}

type t = { guests : guest list }

type block_stat = {
  bs_guest : string;
  bs_core : int;
  bs_block : int;
  bs_leader : int option;  (* [None] for the unmapped pseudo-block *)
  bs_cycles : int;
  bs_retired : int;
  bs_classes : (Cost_class.t * int) list;  (* nonzero only, class order *)
}

let guest ~core ~label ~leaders ~cycles ~retired =
  let nblocks = Array.length leaders in
  if Array.length cycles <> (nblocks + 1) * n_classes then
    invalid_arg "Profile.guest: cycles array shape mismatch";
  if Array.length retired <> nblocks + 1 then
    invalid_arg "Profile.guest: retired array shape mismatch";
  { core; label; leaders; cycles; retired }

let make guests = { guests }

let guest_nblocks g = Array.length g.leaders

let block_cycles g b =
  let base = b * n_classes in
  let total = ref 0 in
  for c = 0 to n_classes - 1 do
    total := !total + g.cycles.(base + c)
  done;
  !total

let guest_cycles g = Array.fold_left ( + ) 0 g.cycles
let total_cycles t = List.fold_left (fun a g -> a + guest_cycles g) 0 t.guests

let class_totals t =
  let totals = Array.make n_classes 0 in
  List.iter
    (fun g ->
      Array.iteri
        (fun i v -> totals.(i mod n_classes) <- totals.(i mod n_classes) + v)
        g.cycles)
    t.guests;
  List.map (fun cls -> (cls, totals.(Cost_class.index cls))) Cost_class.all

let block_classes g b =
  let base = b * n_classes in
  List.filter_map
    (fun cls ->
      let v = g.cycles.(base + Cost_class.index cls) in
      if v > 0 then Some (cls, v) else None)
    Cost_class.all

let block_stat_of g b =
  {
    bs_guest = g.label;
    bs_core = g.core;
    bs_block = b;
    bs_leader = (if b < guest_nblocks g then Some g.leaders.(b) else None);
    bs_cycles = block_cycles g b;
    bs_retired = g.retired.(b);
    bs_classes = block_classes g b;
  }

(* Rank by cycles descending; deterministic tie-break on (guest label,
   block id) so equal-cost blocks never reorder across runs. *)
let compare_stat a b =
  match compare b.bs_cycles a.bs_cycles with
  | 0 -> (
    match compare a.bs_guest b.bs_guest with
    | 0 -> compare a.bs_block b.bs_block
    | c -> c)
  | c -> c

(* The [top] blocks with any activity, ranked by cycles descending. *)
let hot_blocks ~top t =
  List.concat_map
    (fun g ->
      List.init (guest_nblocks g + 1) (fun b -> block_stat_of g b)
      |> List.filter (fun s -> s.bs_cycles > 0 || s.bs_retired > 0))
    t.guests
  |> List.sort compare_stat
  |> List.filteri (fun i _ -> i < top)

let hottest t = match hot_blocks ~top:1 t with [] -> None | s :: _ -> Some s

let block_name s =
  match s.bs_leader with
  | Some leader -> Printf.sprintf "block@0x%04x" leader
  | None -> "unmapped"

let table ?(top = 10) t =
  let buf = Buffer.create 1024 in
  let stats = hot_blocks ~top t in
  let total = total_cycles t in
  Buffer.add_string buf
    (Printf.sprintf "%-4s %-18s %-14s %10s %6s %10s  %s\n" "rank" "guest"
       "block" "cycles" "pct" "retired" "top classes");
  List.iteri
    (fun i s ->
      let pct =
        if total = 0 then 0.0
        else 100.0 *. float_of_int s.bs_cycles /. float_of_int total
      in
      let classes =
        List.sort
          (fun (ca, va) (cb, vb) ->
            match compare vb va with
            | 0 -> compare (Cost_class.index ca) (Cost_class.index cb)
            | c -> c)
          s.bs_classes
        |> List.filteri (fun i _ -> i < 3)
        |> List.map (fun (cls, v) ->
               Printf.sprintf "%s=%d" (Cost_class.to_string cls) v)
        |> String.concat " "
      in
      Buffer.add_string buf
        (Printf.sprintf "%-4d %-18s %-14s %10d %5.1f%% %10d  %s\n" (i + 1)
           s.bs_guest (block_name s) s.bs_cycles pct s.bs_retired classes))
    stats;
  Buffer.add_string buf
    (Printf.sprintf "total: %d cycles over %d guest(s)\n" total
       (List.length t.guests));
  Buffer.contents buf

(* Folded-stack flamegraph text: one `guest;block;class N` line per
   nonzero cell, loadable in speedscope / inferno's flamegraph.pl. *)
let folded t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun g ->
      for b = 0 to guest_nblocks g do
        let s = block_stat_of g b in
        List.iter
          (fun (cls, v) ->
            Buffer.add_string buf
              (Printf.sprintf "%s;%s;%s %d\n" g.label (block_name s)
                 (Cost_class.to_string cls) v))
          s.bs_classes
      done)
    t.guests;
  Buffer.contents buf

let to_json ?(top = 10) t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{";
  Buffer.add_string buf
    (Printf.sprintf "\"total_cycles\":%d,\"guests\":%d,\"classes\":{"
       (total_cycles t)
       (List.length t.guests));
  List.iteri
    (fun i (cls, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%d" (Cost_class.to_string cls) v))
    (class_totals t);
  Buffer.add_string buf "},\"hot_blocks\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"guest\":\"%s\",\"core\":%d,\"block\":\"%s\",\"cycles\":%d,\"retired\":%d,\"classes\":{"
           (Json.escape s.bs_guest) s.bs_core (block_name s) s.bs_cycles
           s.bs_retired);
      List.iteri
        (fun j (cls, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":%d" (Cost_class.to_string cls) v))
        s.bs_classes;
      Buffer.add_string buf "}}")
    (hot_blocks ~top t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let summary t =
  match hottest t with
  | None -> "profile: empty"
  | Some s ->
    Printf.sprintf "profile: %d cycles, hottest %s %s (%d cycles)"
      (total_cycles t) s.bs_guest (block_name s) s.bs_cycles
